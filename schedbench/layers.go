package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// perLayer computes the traced run's per-layer metrics: client-side
// spans and scrape deltas of the traced window, the tracing overhead
// against the untraced window before it, and the in-process replay.
func perLayer(o options, w *workload, g *inputs, traced, plain *window, d counters, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	lat, plainLat := byClass(traced), byClass(plain)
	for k, name := range className {
		// Server mean from schedd_request_seconds; on a ring it
		// averages entry-node and owner-node handling of forwarded
		// requests.
		server := 0.0
		if d.reqCount[k] > 0 {
			server = d.reqSum[k] / d.reqCount[k] * 1e3
		}
		out["transport.ms."+name] = meanOf(lat[k]) - server
		out["trace.overhead_ms."+name] = percentile(lat[k], 0.5) - percentile(plainLat[k], 0.5)
		var viaOwner, viaOther []float64
		for _, s := range traced.samples {
			if s.class != k {
				continue
			}
			if s.owner {
				viaOwner = append(viaOwner, s.ms)
			} else {
				viaOther = append(viaOther, s.ms)
			}
		}
		out["service.router.forward_extra_ms."+name] = 0
		if len(viaOther) > 0 && len(viaOwner) > 0 {
			out["service.router.forward_extra_ms."+name] = percentile(viaOther, 0.5) - percentile(viaOwner, 0.5)
		}
	}
	completed := float64(len(traced.samples))
	out["service.session.cache_lookups"] = d.cacheHits + d.cacheMisses
	out["service.session.cache_hit_ratio"] = ratio(d.cacheHits, d.cacheHits+d.cacheMisses)
	out["service.session.whatifs"] = d.whatIfs
	out["service.session.coalesced_frac"] = ratio(d.coalesced, d.whatIfs)
	out["lp.batches"] = d.batches
	out["lp.forks_per_batch"] = ratio(d.forks, d.batches)
	out["lp.cold_fallbacks"] = d.coldFallbacks
	// Forwarded is what the client sent to a node that does not own the
	// session: routing is deterministic, so each of those is forwarded
	// exactly once. (schedd's own forwarded counter also counts routed
	// requests its node served locally.)
	forwarded := 0.0
	for _, s := range traced.samples {
		if !s.owner {
			forwarded++
		}
	}
	out["service.router.requests"] = completed
	out["service.router.forwarded_frac"] = ratio(forwarded, completed)
	out["service.router.routed"] = d.forwarded
	out["service.router.retries"] = d.retries
	out["service.replication.fanout_ms"] = ratio(d.fanoutSum, d.fanoutCount) * 1e3
	out["service.replication.errors"] = d.replicaErrors

	n := w.replay
	if o.smoke {
		n = min(n, 40)
	}
	if err := replay(n, w.replaySessions, g, traced.stream, traced.spans, dir, out); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := traced.spans.write(spanFile); err != nil {
		return nil, err
	}
	return out, nil
}

// layerUnit derives a per-layer metric's unit from its name: the
// part before any endpoint or operation suffix ends in its unit.
func layerUnit(name string) string {
	base := name
	for _, c := range className {
		base = strings.TrimSuffix(base, "."+c)
	}
	switch {
	case strings.HasSuffix(base, "_us"), strings.HasPrefix(base, "lp.us_per"):
		return "us"
	case strings.HasSuffix(base, "_ms"), base == "transport.ms":
		return "ms"
	case strings.HasSuffix(base, "_bytes"):
		return "B"
	case strings.HasSuffix(base, "_frac"), strings.HasSuffix(base, "_ratio"):
		return "1"
	}
	return "count"
}
