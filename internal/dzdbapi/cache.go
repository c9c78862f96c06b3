package dzdbapi

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
)

// MetricCacheRequests counts response cache lookups by route and
// outcome. The cache's size and hit ratio are read from CacheStats
// (/statusz [serving]), not exported as gauges.
const MetricCacheRequests = "dzdb_cache_requests_total"

const (
	// defaultCacheBytes is the response cache budget when the embedder
	// never calls SetCacheBytes.
	defaultCacheBytes = 64 << 20
	// maxCacheBody is the largest single body the cache will hold; a
	// full-zone snapshot past this size is recomputed per request rather
	// than evicting the whole hot set.
	maxCacheBody = 4 << 20
)

// cacheEntry is one cached 200 response body. The ETag is not stored:
// it is recomputed from (epoch, key), which is also what makes 304
// evaluation possible without touching the cache at all. enc records
// the body's Content-Encoding ("" = identity); the encoding is part of
// the cache key, so one key never serves mixed encodings.
type cacheEntry struct {
	key   string
	ctype string
	enc   string
	body  []byte
}

// respCache is the in-process response cache. Every entry belongs to
// the single epoch the cache is currently keyed to: publishing a new
// View (Close, Adopt) flushes it wholesale, which is the entire
// invalidation story — the epoch is the validator, so there is nothing
// stale to chase. Entries are LRU-evicted under a byte budget.
type respCache struct {
	mu        sync.Mutex
	capBytes  int64
	bytes     int64
	epoch     uint64
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

func newRespCache(capBytes int64) *respCache {
	return &respCache{
		capBytes: capBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// flushLocked drops every entry. Callers hold c.mu.
func (c *respCache) flushLocked(epoch uint64) {
	c.entries = make(map[string]*list.Element)
	c.order.Init()
	c.bytes = 0
	c.epoch = epoch
}

// get returns the cached body for key under epoch. An epoch newer than
// the cache's flushes it first; a lookup from an older epoch (a request
// that pinned its View just before an Adopt) always misses and must not
// disturb the newer working set.
func (c *respCache) get(epoch uint64, key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.flushLocked(epoch)
	}
	if epoch < c.epoch {
		c.misses++
		return cacheEntry{}, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return *el.Value.(*cacheEntry), true
}

// put stores a 200 body for key under epoch, evicting least-recently
// used entries past the byte budget. Bodies from superseded epochs and
// oversized bodies are dropped on the floor.
func (c *respCache) put(epoch uint64, key, ctype, enc string, body []byte) {
	if int64(len(body)) > maxCacheBody || int64(len(body)) > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.flushLocked(epoch)
	}
	if epoch < c.epoch {
		return
	}
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(old.body))
		old.ctype, old.enc, old.body = ctype, enc, body
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&cacheEntry{key: key, ctype: ctype, enc: enc, body: body})
		c.entries[key] = el
		c.bytes += int64(len(body))
	}
	for c.bytes > c.capBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
	}
}

// bump retires the working set when a newer epoch publishes; puts and
// gets would do this lazily, but flushing eagerly releases the old
// bodies immediately and keeps the gauges honest.
func (c *respCache) bump(epoch uint64) {
	c.mu.Lock()
	if epoch > c.epoch {
		c.flushLocked(epoch)
	}
	c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of the response cache,
// surfaced on /statusz and read by the bench's serve-node workload
// (dzdbapi.cache_hit_ratio, dzdbapi.cache_evictions).
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
	Capacity  int64
	Epoch     uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookups.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (c *respCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Capacity:  c.capBytes,
		Epoch:     c.epoch,
	}
}

// cacheKey canonicalizes a request for cache and ETag purposes: path
// plus the sorted-encoded query, so parameter order never splits the
// cache. url.Values.Encode sorts by key.
func cacheKey(r *http.Request) string {
	q := r.URL.Query()
	if len(q) == 0 {
		return r.URL.Path
	}
	return r.URL.Path + "?" + q.Encode()
}

// makeETag derives the strong validator for a request under an epoch.
// Views are immutable, so (epoch, canonical params) fully determines
// the representation; no body hashing is needed, which is what lets
// If-None-Match be answered before the handler runs.
func makeETag(epoch uint64, key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("\"e%d-%016x\"", epoch, h.Sum64())
}

// etagMatch implements the If-None-Match weak comparison over a
// comma-separated candidate list; "*" matches any representation.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" {
			return true
		}
		c = strings.TrimPrefix(c, "W/")
		if c == etag {
			return true
		}
	}
	return false
}

// recordingWriter tees a handler's response into a buffer so 200
// bodies can be inserted into the cache, stamping the precomputed ETag
// on success responses. Bodies past maxCacheBody stop buffering and
// pass straight through.
type recordingWriter struct {
	http.ResponseWriter
	etag    string
	status  int
	buf     bytes.Buffer
	tooBig  bool
	started bool
}

func (w *recordingWriter) WriteHeader(status int) {
	if !w.started {
		w.started = true
		w.status = status
		if status == http.StatusOK {
			w.Header().Set("ETag", w.etag)
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if !w.started {
		w.WriteHeader(http.StatusOK)
	}
	if w.status == http.StatusOK && !w.tooBig {
		if w.buf.Len()+len(p) > maxCacheBody {
			w.tooBig = true
			w.buf.Reset()
		} else {
			w.buf.Write(p)
		}
	}
	return w.ResponseWriter.Write(p)
}
