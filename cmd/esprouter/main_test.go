package main

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRouterDrainsOnSIGTERM builds the binary in front of a slow replica,
// holds a request in flight at the replica, sends SIGTERM, and checks that
// the request still completes with the replica's 200 answer relayed
// verbatim and that the router exits cleanly (run returned nil).
func TestRouterDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end router test in short mode")
	}
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	const answer = `{"id":"slow","predictions":[]}` + "\n"
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-release
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, answer)
	}))
	defer replica.Close()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	dir := t.TempDir()
	bin := filepath.Join(dir, "esprouter")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-replicas", replica.URL)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	i := strings.LastIndex(line, " on ")
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + strings.TrimSpace(line[i+4:])
	// As in espserve's test: cmd.Wait may only run after the scanner hits
	// EOF, or it can discard the final log lines.
	lines := make(chan string, 64)
	waited := make(chan error, 1)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		waited <- cmd.Wait()
	}()

	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/predict", "application/json",
			strings.NewReader(`{"id":"slow","vectors":[]}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, string(b), err}
	}()
	select {
	case <-arrived:
	case <-time.After(30 * time.Second):
		t.Fatal("request never reached the replica")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Release the replica only once the router has begun shutting down.
	select {
	case l := <-lines:
		if l != "esprouter: draining" {
			t.Fatalf("after SIGTERM the router printed %q, want the draining line", l)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not start draining within 30s of SIGTERM")
	}
	select {
	case r := <-done:
		t.Fatalf("in-flight request finished before the replica answered: %+v", r)
	default:
	}
	close(release)

	select {
	case r := <-done:
		if r.err != nil || r.status != http.StatusOK || r.body != answer {
			t.Fatalf("in-flight request: status %d body %q err %v; want 200 %q", r.status, r.body, r.err, answer)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not complete after the replica answered")
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("esprouter exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("esprouter did not exit after draining")
	}
	var tail []string
	for l := range lines {
		tail = append(tail, l)
	}
	if joined := strings.Join(tail, "\n"); !strings.Contains(joined, "drained, exiting") {
		t.Errorf("missing drain log line:\n%s", joined)
	}
}

// TestRunRejectsBadReplicas covers the CLI error paths without a subprocess.
func TestRunRejectsBadReplicas(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("run succeeded without -replicas")
	}
	if err := run([]string{"-replicas", " , "}); err == nil {
		t.Fatal("run accepted -replicas with no usable URL")
	}
}
