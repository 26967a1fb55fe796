package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// daemon is an in-process serve.Server on a loopback listener with a
// client limited to conns connections.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	errc   chan error
	base   string
	client *http.Client
}

// startDaemon boots a server whose driver pool is one worker per CPU.
// wrap, when non-nil, wraps the server's handler (the traced run times
// handlers that way).
func startDaemon(conns int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv := serve.New(serve.Config{Driver: core.NewDriver(runtime.NumCPU())})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		errc: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { d.errc <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shut down daemon: %w", err)
	}
	if err := <-d.errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

// repeatSetup sets a workload up n times and keeps the last daemon.
// Each earlier daemon is stopped and dropped, and the heap collected,
// before the next set-up starts, so every set-up starts from the same
// heap. It returns each set-up's wall time in seconds.
func repeatSetup(n int, setup func() (*daemon, error)) (*daemon, []float64, error) {
	var d *daemon
	var secs []float64
	for i := 0; i < n; i++ {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t, err := timeIt(func() (err error) {
			d, err = setup()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, t.Seconds())
	}
	return d, secs, nil
}

// post sends one JSON request body and decodes a 200 reply into resp.
// hdr, when non-nil, adds request headers.
func (d *daemon) post(path string, body []byte, resp any, hdr http.Header) error {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	r, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("%s: read reply: %w", path, err)
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, r.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return nil
}

// mustJSON encodes a request body; the request types always encode.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err))
	}
	return data
}
