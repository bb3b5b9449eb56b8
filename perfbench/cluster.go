package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running server binary.
type proc struct {
	cmd  *exec.Cmd
	addr string        // the address it listens on
	done chan struct{} // closed once its stdout reaches EOF
}

// startProc runs a server binary and waits until it prints the address it
// listens on (both espserve and esprouter print "... on <addr>" once
// bound). The child is killed if this process dies first.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && i >= 0 {
				addr <- strings.TrimSpace(line[i+4:])
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		p.addr = a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s", filepath.Base(bin))
	}
}

// stop sends SIGTERM (espserve drains on it), waits up to ten seconds,
// kills the process if it is still running, and reaps it.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	_ = p.cmd.Wait()
}

// cluster is esprouter in front of two espserve replicas, each started
// with default flags serving one model file, plus an access log of every
// request trace.
type cluster struct {
	replicas []*proc
	router   *proc
	logs     []string // the replicas' access logs
}

// startCluster starts the replicas, logging to logDir, then the router.
func startCluster(binDir, model, logDir string) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		log := filepath.Join(logDir, "replica-"+strconv.Itoa(i)+".log")
		c.logs = append(c.logs, log)
		p, err := startProc(filepath.Join(binDir, "espserve"),
			"-model", model, "-addr", "127.0.0.1:0", "-access-log", log, "-trace-sample", "1")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, p)
		urls = append(urls, "http://"+p.addr)
	}
	p, err := startProc(filepath.Join(binDir, "esprouter"),
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","))
	if err != nil {
		c.stop()
		return nil, err
	}
	c.router = p
	if err := waitHealthy("http://" + p.addr + "/healthz"); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// url is the router's base URL.
func (c *cluster) url() string { return "http://" + c.router.addr }

// stop stops the router first, then the replicas.
func (c *cluster) stop() {
	if c.router != nil {
		c.router.stop()
	}
	for _, r := range c.replicas {
		r.stop()
	}
}

// parseCounters reads the named unlabelled counters from a Prometheus text
// exposition.
func parseCounters(text string, names []string) map[string]float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// waitHealthy polls a /healthz URL until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 30s", url)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
