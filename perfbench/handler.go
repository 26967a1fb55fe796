package main

import (
	"net/http"
	"path"
	"strconv"
	"time"
)

// Request headers that carry the client's span and request id to the
// server-side handler wrapper in a traced run.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// spanHeader returns the headers linking a request to its client-side
// span, or nil when the run is untraced.
func spanHeader(span int32, req int64) http.Header {
	if span == 0 {
		return nil
	}
	h := http.Header{}
	h.Set(hdrSpan, strconv.Itoa(int(span)))
	h.Set(hdrReq, strconv.FormatInt(req, 10))
	return h
}

// handlerWrapper returns a wrapper that records a "handler.<endpoint>"
// span around every call into the server's handler, parented to the
// client span named in the request headers; nil when tr is nil, so an
// untraced run serves through the bare handler.
func handlerWrapper(tr *tracer) func(http.Handler) http.Handler {
	if tr == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))         // absent header: a root span
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64) // absent header: no request id
			id := tr.open("handler."+path.Base(r.URL.Path), int32(parent), req, time.Now())
			next.ServeHTTP(w, r)
			tr.end(id)
		})
	}
}
