package main

import (
	"log"
	"net"
	"net/http"
	"time"
)

// serveSide runs one of dagd's secondary listeners: the internal worker
// API (-fleet-addr) or the debug surface (-debug-addr). Each is a separate
// listener from the public v1 API on purpose. Workers are infrastructure,
// not clients — the fleet port can be firewalled to the worker network
// while the public port faces users, and lease long-polls never occupy
// the public server's connections; profile downloads stay out of the
// public server's middleware. Neither has auth: bind them to localhost or
// a private interface.
//
// The listener is bound synchronously (so a bad address fails dagd at
// startup, like -addr does) and served in the background. The bound
// address is logged for scripts that pass ":0".
func serveSide(name, serves, addr string, h http.Handler) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &http.Server{
		Handler: h,
		// Covers request headers only; lease long-polls and 30s profiles
		// run under the handler's own deadline and must not be cut short.
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("dagd: %s listener on %s (%s)", name, ln.Addr(), serves)
	go func() {
		if err := s.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("dagd: %s listener: %v", name, err)
		}
	}()
	return s, nil
}
