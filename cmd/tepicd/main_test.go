package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer guards the daemon's output stream: run writes from the
// test's goroutine while the test polls for the listen line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, serves a
// health probe and one real encode, then shuts down cleanly on context
// cancellation.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-par", "2", "-cachecap", "64"}, out)
	}()

	// Wait for the listen line and parse the bound address from it.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "tepicd listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/encode", "application/json",
		strings.NewReader(`{"benchmark":"compress","scheme":"full"}`))
	if err != nil {
		t.Fatal(err)
	}
	var enc struct {
		Ratio float64 `json:"ratio"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&enc); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode status = %d, want 200", resp.StatusCode)
	}
	if enc.Ratio <= 0 || enc.Ratio >= 1 {
		t.Errorf("encode ratio = %v, want in (0, 1)", enc.Ratio)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancel")
	}
	if !strings.Contains(out.String(), "tepicd shut down") {
		t.Errorf("missing shutdown line in output %q", out.String())
	}
}

// TestDaemonBadFlags rejects unparseable flag sets without booting.
func TestDaemonBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-no-such-flag"}, &syncBuffer{})
	if err == nil {
		t.Fatal("bad flags accepted")
	}
}

// TestDaemonBadAddr surfaces listener failures as run's error.
func TestDaemonBadAddr(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.0.0.1:99999"}, &syncBuffer{})
	if err == nil {
		t.Fatal("bad address accepted")
	}
	if !strings.Contains(fmt.Sprint(err), "listen") {
		t.Errorf("error %v does not mention listen", err)
	}
}

// TestServerTimeouts pins the connection timeouts the daemon's
// http.Server runs with: a client stalling before its headers and an
// idle keep-alive connection are both cut off, while responses carry
// no write deadline.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: a streamed simulate may run for seconds", srv.WriteTimeout)
	}
}
