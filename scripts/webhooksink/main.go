// Command webhooksink is a tiny webhook receiver for smoke tests: it
// counts notification POSTs, optionally failing the first -fail-first of
// them with a 500 so the sender's retry path is exercised, and reports
// what it saw on GET /stats as compact JSON.
//
//	webhooksink -addr 127.0.0.1:18092 -fail-first 1
//
// POST /notify  — the webhook target; body is read and discarded.
// GET  /stats   — {"requests":N,"delivered":M}: total POSTs seen and
//
//	POSTs answered 2xx.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:18092", "listen address")
	failFirst := flag.Int64("fail-first", 0, "answer the first N notification POSTs with a 500 (exercises sender retries)")
	flag.Parse()

	var requests, delivered atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /notify", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // body content is irrelevant
		if n := requests.Add(1); n <= *failFirst {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		delivered.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"requests":%d,"delivered":%d}`+"\n", requests.Load(), delivered.Load())
	})

	log.Printf("webhooksink listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
