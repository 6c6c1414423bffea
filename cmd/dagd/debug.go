package main

import (
	"expvar"
	"net/http"
	"net/http/pprof"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/server"
)

// debugHandler is what the private debug listener serves: the full
// net/http/pprof surface (CPU/heap/goroutine/block profiles and execution
// traces), expvar runtime internals, and a second /metrics mount so a
// scraper pointed at the debug port never touches the public API listener.
// It is deliberately outside the main server's middleware chain — profile
// downloads can run for 30s+ and must not pollute the request-latency
// histograms.
func debugHandler(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", srv.MetricsHandler())
	return mux
}
