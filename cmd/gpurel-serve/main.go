// Command gpurel-serve runs the campaign daemon: an HTTP/JSON service
// that executes sharded, adaptively-stopped fault-injection campaigns
// against the paper's workload suite (internal/serve, DESIGN.md §14).
//
//	gpurel-serve -addr 127.0.0.1:8397
//	curl -d '{"code":"FMXM","device":"volta","target_width":0.2,"seed":1}' \
//	     http://127.0.0.1:8397/campaigns
//	curl http://127.0.0.1:8397/campaigns/c000001/stream     # SSE progress
//	curl http://127.0.0.1:8397/campaigns/c000001/counts     # final tallies
//
// Long campaigns pause (POST /campaigns/{id}/pause), checkpoint to the
// spool directory, and resume — across daemon restarts — with final
// counts byte-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"gpurel/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8397", "listen address")
	workers := flag.Int("workers", 0, "global concurrent-trial bound (0: one per CPU)")
	cacheBytes := flag.Int64("cache-bytes", serve.DefaultCacheBytes,
		"runner-cache budget in bytes, charged with each cached runner's retained memory")
	spool := flag.String("spool", "", "campaign checkpoint directory (default: fresh temp dir)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof (operator profiling surface)")
	quiet := flag.Bool("quiet", false, "suppress per-campaign log lines")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	srv, err := serve.New(serve.Options{
		SimWorkers:  *workers,
		CacheBytes:  *cacheBytes,
		SpoolDir:    *spool,
		EnablePprof: *pprofFlag,
		Logf:        logf,
	})
	if err != nil {
		fail(err)
	}

	// Bind before announcing, so a wrapper can treat the announcement
	// line as "ready" and read the bound address off it; with -addr
	// 127.0.0.1:0 that is how scripts/check.sh serve finds the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("gpurel-serve listening on http://%s (spool %s)\n", ln.Addr(), srv.SpoolDir())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gpurel-serve:", err)
	os.Exit(1)
}
