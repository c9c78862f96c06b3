package dzdbapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dnsname"
	"repro/internal/faults"
	"repro/internal/obs/trace"
)

const (
	// maxJSONBody bounds structured responses; the largest legitimate
	// payload (a nameserver's full delegation history) is far below this.
	maxJSONBody = 8 << 20
	// maxErrBody bounds how much of an error payload is read, and
	// errSnippet how much of it is quoted back in APIError.
	maxErrBody = 4 << 10
	errSnippet = 200
	// drainLimit caps how many leftover bytes are consumed before close
	// so the keep-alive connection can be reused.
	drainLimit = 64 << 10
)

// Client queries a dzdbapi server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8053".
	BaseURL string
	// HTTPClient overrides the default client (2s timeout) when set.
	HTTPClient *http.Client
	// Retry, when set, retries requests per the policy. Transport errors
	// and 5xx responses are retryable; 4xx responses are permanent. All
	// the client's requests are idempotent GETs, so replay is safe.
	Retry *faults.Policy
	// Breaker, when set, guards every request: after repeated failures
	// calls fail fast with faults.ErrOpen instead of hammering a dead
	// server.
	Breaker *faults.Breaker
	// Tracer, when set, opens a client span per call. Whether or not it
	// is set, the active trace context in ctx is injected into every
	// request as a traceparent header, so server-side logs and metrics
	// can be joined to the caller's trace.
	Tracer *trace.Tracer
}

// APIError is a non-200 response.
type APIError struct {
	Status int
	Msg    string
	// Code is the machine-readable error code from the v1 envelope
	// ("not_found", "invalid_cursor", ...); empty when the body was not
	// one.
	Code string
	// Body is a truncated snippet of a non-JSON error payload (an HTML
	// error page from a proxy, a panic trace), kept for diagnostics.
	Body string
	// RetryAfter is the server's backoff guidance from a Retry-After
	// header (a coordinator's 503 carries one, as may any server's 429);
	// zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Body != "" {
		return fmt.Sprintf("dzdbapi: %d %s: %q", e.Status, e.Msg, e.Body)
	}
	return fmt.Sprintf("dzdbapi: %d %s", e.Status, e.Msg)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 2 * time.Second}
}

// maxRetryAfterWait caps how long the client honors a Retry-After
// hint before the next attempt, so a hostile or confused server cannot
// park a caller indefinitely.
const maxRetryAfterWait = 5 * time.Second

// retryableResponse classifies errors for the retry policy: server-side
// (5xx), 429s, and transport failures may clear up; other
// client-side (4xx) errors will repeat identically and are permanent.
func retryableResponse(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	return true
}

// do runs fn through the breaker and retry policy, if configured. When
// a response carries Retry-After (a 429 or 503), the client sleeps
// out the server's guidance (capped at maxRetryAfterWait) before the
// policy's own backoff schedules the next attempt.
func (c *Client) do(ctx context.Context, fn func(ctx context.Context) error) error {
	run := fn
	if c.Breaker != nil {
		run = func(ctx context.Context) error { return c.Breaker.Do(ctx, fn) }
	}
	if c.Retry == nil {
		return run(ctx)
	}
	p := *c.Retry
	if p.Retryable == nil {
		p.Retryable = retryableResponse
	}
	withHint := func(ctx context.Context) error {
		err := run(ctx)
		var ae *APIError
		if err != nil && errors.As(err, &ae) && ae.RetryAfter > 0 && retryableResponse(err) {
			wait := ae.RetryAfter
			if wait > maxRetryAfterWait {
				wait = maxRetryAfterWait
			}
			if serr := faults.Sleep(ctx, wait); serr != nil {
				return serr
			}
		}
		return err
	}
	return faults.Retry(ctx, p, withHint)
}

// drain consumes any unread remainder of the body before closing it so
// the underlying keep-alive connection stays reusable.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainLimit))
	body.Close()
}

// errorFromResponse reads a bounded amount of a non-200 body. Servers
// answer {"error":{"code","message"}}; anything else (a proxy's HTML
// page) is preserved as a truncated snippet.
func errorFromResponse(resp *http.Response) error {
	retryAfter := parseRetryAfter(resp)
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrBody))
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err == nil && ae.Error.Message != "" {
		return &APIError{Status: resp.StatusCode, Msg: ae.Error.Message, Code: ae.Error.Code, RetryAfter: retryAfter}
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > errSnippet {
		s = s[:errSnippet] + "..."
	}
	return &APIError{Status: resp.StatusCode, Msg: resp.Status, Body: s, RetryAfter: retryAfter}
}

// parseRetryAfter reads backoff guidance from a Retry-After header,
// in either delta-seconds or HTTP-date form. A number of seconds past
// what a Duration holds saturates rather than wrapping negative, which
// would read as no guidance at all; the caller caps the wait anyway.
func parseRetryAfter(resp *http.Response) time.Duration {
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.ParseInt(raw, 10, 64)
	if errors.Is(err, strconv.ErrRange) && secs > 0 {
		err = nil // ParseInt saturated at MaxInt64
	}
	if err == nil && secs >= 0 {
		if secs > int64(math.MaxInt64/time.Second) {
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(raw); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func (c *Client) getJSON(ctx context.Context, op, path string, out any) error {
	return c.getJSONClient(ctx, op, path, out, nil)
}

// getJSONClient is getJSON with an explicit http.Client, which the
// long-poll path uses to outlive the default 2s request timeout.
func (c *Client) getJSONClient(ctx context.Context, op, path string, out any, hc *http.Client) (err error) {
	ctx, sp := c.Tracer.Start(ctx, "dzdbapi.client."+op)
	defer func() { sp.SetError(err); sp.End() }()
	if hc == nil {
		hc = c.httpClient()
	}
	return c.do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return faults.Permanent(err)
		}
		trace.Inject(ctx, req.Header)
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return errorFromResponse(resp)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(out)
	})
}

// Stats fetches database-wide counts.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.getJSON(ctx, "stats", "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Domain fetches a domain's registration spans and nameserver history.
func (c *Client) Domain(ctx context.Context, name dnsname.Name) (*DomainResponse, error) {
	var out DomainResponse
	if err := c.getJSON(ctx, "domain", "/v1/domains/"+url.PathEscape(string(name)), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Nameserver fetches one page of a nameserver's delegated domains
// (cursor "" starts the list; limit 0 asks for the server's largest
// page). Summary always reflects the full exposure regardless of the
// window.
func (c *Client) Nameserver(ctx context.Context, name dnsname.Name, cursor string, limit int) (*NameserverResponse, error) {
	path := "/v1/nameservers/" + url.PathEscape(string(name))
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out NameserverResponse
	if err := c.getJSON(ctx, "nameserver", path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
