// Package pprofserve starts a net/http/pprof listener on its own
// address, for profiling both ends of a dispatched sweep (`sweep
// -dispatch` and simworker) while it is in flight. A dedicated mux keeps
// the profiling surface off the protocol listeners — nothing but
// /debug/pprof/ is served, and only where the operator asked for it.
package pprofserve

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Serve starts serving /debug/pprof/ at addr in the background and
// returns the bound address (useful with a ":0" port). The listener
// lives until the process exits.
func Serve(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
