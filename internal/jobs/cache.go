package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sync"

	"repro"
)

// Content-addressed result cache: estimation runs are deterministic
// functions of (code version, workload, canonical options, seed), so a
// completed Result can be replayed for any later request with the same
// key — zero new simulations. The key leaves out what cannot change the
// result's bits: the worker count and Distribute (every estimate is
// bit-identical across worker counts, and a distributed fold equals the
// in-process run) and TimeoutSeconds. TraceEvery stays, because it adds
// convergence snapshots to the Result.

// cacheSchema versions the key derivation itself.
const cacheSchema = "v2"

// moduleVersion pins cache keys to the running build, so an upgraded
// binary never replays results computed by different code.
var moduleVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		v := bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
		}
		return v
	}
	return "unknown"
}()

// cacheKey derives the content address of a request's result.
func cacheKey(req Request) string {
	o := req.Options().Canonical()
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|k=%d|n=%d|target=%g|seed=%d|trace=%d|mix=%d|quad=%t",
		cacheSchema, moduleVersion, req.Workload, o.Method,
		o.K, o.N, o.Target, o.Seed, o.TraceEvery, o.Mixture, o.Quadratic)
	return hex.EncodeToString(h.Sum(nil))
}

// resultCache is a bounded FIFO map of completed results. Entries are
// immutable *repro.Result values shared by reference — every consumer
// treats a finished Result as read-only.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order []string
	m     map[string]*repro.Result
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity, m: make(map[string]*repro.Result, capacity)}
}

// get returns the cached result for key, or nil. Nil-receiver safe.
func (c *resultCache) get(key string) *repro.Result {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// put stores res under key, evicting the oldest entry at capacity.
// Nil-receiver safe; a key is only written once.
func (c *resultCache) put(key string, res *repro.Result) {
	if c == nil || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	if len(c.order) >= c.cap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[key] = res
	c.order = append(c.order, key)
}

// len reports the number of cached results. Nil-receiver safe.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
