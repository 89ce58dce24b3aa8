package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the daemon's connection limits: a client has
// 10 s to send its request headers, and nothing bounds reading a body or
// writing a response, so a long /sweep?stream=1 is never cut.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Errorf("server built for %q with handler %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}
