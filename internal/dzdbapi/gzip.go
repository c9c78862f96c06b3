package dzdbapi

import (
	"compress/gzip"
	"net/http"
	"strings"
)

// gzipKeySuffix marks the gzip variant of a cache key. The encoding is
// part of the key, so the compressed and identity representations of
// one resource never collide in the cache — and because the ETag is
// derived from the key, the validators differ per encoding too, as
// RFC 9110 requires of content-coded representations.
const gzipKeySuffix = "#gzip"

// compressibleRoute reports whether a route's bodies are worth
// negotiating compression for. Only the two large-body routes opt in:
// a full-zone snapshot and a plain delta-feed page can run to
// megabytes, while the other v1 payloads are small enough that gzip
// overhead beats the transfer savings. A long-poll never reaches this —
// it bypasses the cache layer entirely.
func compressibleRoute(route string) bool {
	return route == "/v1/zones/{zone}/snapshot" || route == "/v1/deltas"
}

// acceptsGzip implements the Accept-Encoding negotiation: gzip must be
// listed (or covered by a wildcard) and not disabled with q=0.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, q, hasQ := strings.Cut(part, ";")
		name = strings.TrimSpace(name)
		if name != "gzip" && name != "*" {
			continue
		}
		if hasQ {
			q = strings.TrimSpace(q)
			if strings.HasPrefix(q, "q=0") && !strings.HasPrefix(q, "q=0.") {
				continue
			}
		}
		return true
	}
	return false
}

// gzipWriter compresses a handler's response stream. The
// Content-Encoding header is stamped at the first write, whatever the
// status — a compressed error envelope is valid for a client that
// offered gzip. Close must run after the handler returns to flush the
// trailing gzip frame.
type gzipWriter struct {
	http.ResponseWriter
	gz      *gzip.Writer
	started bool
}

func newGzipWriter(w http.ResponseWriter) *gzipWriter {
	return &gzipWriter{ResponseWriter: w, gz: gzip.NewWriter(w)}
}

func (w *gzipWriter) WriteHeader(status int) {
	if !w.started {
		w.started = true
		h := w.Header()
		h.Set("Content-Encoding", "gzip")
		h.Del("Content-Length")
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *gzipWriter) Write(p []byte) (int, error) {
	if !w.started {
		w.WriteHeader(http.StatusOK)
	}
	return w.gz.Write(p)
}

func (w *gzipWriter) Close() error { return w.gz.Close() }
