package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
)

// The harness calls the server's ServeHTTP directly: every layer of
// relpipe's request path runs, and the kernel's loopback stack, which
// relpipe does not own, stays out of the measurement.

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{header: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *respWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// urls holds every path the harness requests, parsed once; concurrent
// senders only read it.
var urls = func() map[string]*url.URL {
	m := map[string]*url.URL{}
	for _, p := range []string{"/v1/optimize", "/v1/evaluate", "/v1/simulate", "/metrics", "/debug/traces"} {
		m[p] = &url.URL{Path: p}
	}
	return m
}()

// serve sends one request through h into w (reset first) and returns the
// status. The body stays in w until its next reset.
func serve(h http.Handler, w *respWriter, method, path string, data []byte) int {
	w.reset()
	u := urls[path]
	r := &http.Request{
		Method: method, URL: u, RequestURI: u.RequestURI(), Host: "svcbench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, ContentLength: int64(len(data)),
		Body: io.NopCloser(bytes.NewReader(data)),
	}
	h.ServeHTTP(w, r)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status
}
