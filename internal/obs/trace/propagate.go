package trace

import (
	"context"
	"encoding/hex"
	"net/http"
	"strings"
)

// TraceparentHeader is the W3C Trace Context header name.
const TraceparentHeader = "traceparent"

// Traceparent renders the span context in W3C Trace Context form:
// version 00, sampled flag set ("00-<trace>-<span>-01"). Invalid
// contexts render "".
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent value. It accepts any
// non-ff version (per spec, unknown versions are parsed by the 00
// layout) and rejects malformed fields and all-zero IDs — the caller
// should then start a fresh root span rather than fail the request.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	version, traceHex, spanHex := parts[0], parts[1], parts[2]
	if len(version) != 2 || !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	if len(traceHex) != 32 || !isHex(traceHex) || len(spanHex) != 16 || !isHex(spanHex) ||
		len(parts[3]) != 2 || !isHex(parts[3]) {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(traceHex)); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(spanHex)); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Inject writes the current trace context in ctx (the active span, or
// failing that an extracted remote parent) into h as a traceparent
// header. With no context present it is a no-op.
func Inject(ctx context.Context, h http.Header) {
	sc := SpanFromContext(ctx).Context()
	if !sc.Valid() {
		if remote, ok := RemoteFromContext(ctx); ok {
			sc = remote
		}
	}
	if sc.Valid() {
		h.Set(TraceparentHeader, sc.Traceparent())
	}
}

// Extract reads a traceparent header from h. The boolean is false for
// an absent or malformed header — start a fresh root span in that
// case.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceparent(v)
}
