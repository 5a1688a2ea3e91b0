package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/service"
)

// scrape is every node's /stats and /metrics at one instant, plus the
// processes' CPU time.
type scrape struct {
	stats   []service.PoolStatsResponse
	metrics []map[string]float64
	cpuMs   float64
}

func takeScrape(ctx context.Context, l *loop, cl *deployment) (*scrape, error) {
	sc := &scrape{}
	hc := l.hcs[0]
	for _, u := range l.urls {
		data, err := get(ctx, hc, u+"/stats")
		if err != nil {
			return nil, err
		}
		var st service.PoolStatsResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		text, err := get(ctx, hc, u+"/metrics")
		if err != nil {
			return nil, err
		}
		sc.stats = append(sc.stats, st)
		sc.metrics = append(sc.metrics, parseMetrics(text))
	}
	cpu, err := cl.cpuMs()
	if err != nil {
		return nil, err
	}
	sc.cpuMs = cpu
	return sc, nil
}

// parseMetrics reads the Prometheus text exposition into a map from
// series (name plus label set, as printed) to value.
func parseMetrics(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counters are the server-side counters of a run, summed over nodes.
type counters struct {
	cacheHits, cacheMisses      float64
	whatIfs, coalesced          float64
	pivots, refactors           float64
	coldSolves, coldFallbacks   float64
	forks, batches              float64
	forwarded, retries          float64
	replicasSent, replicaErrors float64
	snapshotBytes               float64
	phaseNs                     [5]float64 // ftran, btran, pricing, ratio, refactor
	reqSum, reqCount            [nClasses]float64
	fanoutSum, fanoutCount      float64
}

// add adds sign times every node's counters in sc to c, so that
// after minus before is the window's delta.
func (c *counters) add(sc *scrape, sign float64) {
	for i, st := range sc.stats {
		t := st.Total
		c.cacheHits += sign * float64(st.Cluster.CacheHits)
		c.cacheMisses += sign * float64(st.Cluster.CacheMisses)
		c.pivots += sign * float64(t.Pivots)
		c.refactors += sign * float64(t.Refactorizations)
		c.coldSolves += sign * float64(t.ColdSolves)
		c.coldFallbacks += sign * float64(t.ColdFallbacks)
		c.forks += sign * float64(t.Forks)
		c.batches += sign * float64(t.Batches)
		c.forwarded += sign * float64(st.Cluster.Forwarded)
		c.retries += sign * float64(st.Cluster.Retries)
		c.replicasSent += sign * float64(st.Cluster.ReplicasSent)
		c.replicaErrors += sign * float64(st.Cluster.ReplicaErrors)
		c.snapshotBytes += sign * float64(st.Cluster.SnapshotBytes)
		c.phaseNs[0] += sign * float64(t.Phase.FTRANNanos)
		c.phaseNs[1] += sign * float64(t.Phase.BTRANNanos)
		c.phaseNs[2] += sign * float64(t.Phase.PricingNanos)
		c.phaseNs[3] += sign * float64(t.Phase.RatioTestNanos)
		c.phaseNs[4] += sign * float64(t.Phase.RefactorNanos)
		for _, s := range st.Sessions {
			c.whatIfs += sign * float64(s.WhatIfs)
			c.coalesced += sign * float64(s.CoalescedWhatIfs)
		}
		m := sc.metrics[i]
		for k, name := range className {
			c.reqSum[k] += sign * m[`schedd_request_seconds_sum{endpoint="`+name+`"}`]
			c.reqCount[k] += sign * m[`schedd_request_seconds_count{endpoint="`+name+`"}`]
		}
		c.fanoutSum += sign * m["schedd_replication_fanout_seconds_sum"]
		c.fanoutCount += sign * m["schedd_replication_fanout_seconds_count"]
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the window's counter deltas, every ratio with its base.
func (d counters) print(out io.Writer, seconds float64) {
	fmt.Fprintf(out, "  counters over %.2fs (summed over nodes):\n", seconds)
	fmt.Fprintf(out, "    answer cache: %.0f hits of %.0f lookups (%.4f)\n", d.cacheHits, d.cacheHits+d.cacheMisses, ratio(d.cacheHits, d.cacheHits+d.cacheMisses))
	fmt.Fprintf(out, "    what-ifs: %.0f coalesced of %.0f (%.4f)\n", d.coalesced, d.whatIfs, ratio(d.coalesced, d.whatIfs))
	fmt.Fprintf(out, "    lp: %.0f pivots, %.0f refactorizations, %.0f cold solves, %.0f cold fallbacks, %.0f forks over %.0f batches\n",
		d.pivots, d.refactors, d.coldSolves, d.coldFallbacks, d.forks, d.batches)
	fmt.Fprintf(out, "    lp phase ms: ftran %.1f btran %.1f pricing %.1f ratio %.1f refactor %.1f\n",
		d.phaseNs[0]/1e6, d.phaseNs[1]/1e6, d.phaseNs[2]/1e6, d.phaseNs[3]/1e6, d.phaseNs[4]/1e6)
	fmt.Fprintf(out, "    router: %.0f routed, %.0f retries; replication: %.0f sent, %.0f errors, fan-out mean %.3f ms over %.0f; snapshots %.0f bytes\n",
		d.forwarded, d.retries, d.replicasSent, d.replicaErrors, ratio(d.fanoutSum, d.fanoutCount)*1e3, d.fanoutCount, d.snapshotBytes)
}
