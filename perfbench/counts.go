package main

import (
	"runtime"

	"muzha"
)

// layerCounts sums the work counters a Result reports per layer over
// the runs of one measurement phase.
type layerCounts struct {
	runs                                     int
	events, macRetries, macDrops             uint64
	discoveries, rerrSent, linkFailures      uint64
	forwarded, queueDrops, marked            uint64
	segmentsSent, retransmissions, timeouts  uint64
	payloadSent, bytesAcked, invariantChecks float64
	resultBytes                              float64
}

func (c *layerCounts) add(r *muzha.Result, mss int, resultBytes int) {
	c.runs++
	c.events += r.Events
	for _, n := range r.Nodes {
		c.macRetries += n.MACRetries
		c.macDrops += n.MACDrops
		c.discoveries += n.Discoveries
		c.rerrSent += n.RERRSent
		c.linkFailures += n.LinkFailures
		c.forwarded += n.Forwarded
		c.queueDrops += n.QueueDrops
		c.marked += n.Marked
	}
	for _, f := range r.Flows {
		c.segmentsSent += f.SegmentsSent
		c.retransmissions += f.Retransmissions
		c.timeouts += f.Timeouts
		c.payloadSent += float64(f.SegmentsSent) * float64(mss)
		c.bytesAcked += float64(f.BytesAcked)
	}
	for _, iv := range r.Invariants {
		c.invariantChecks += float64(iv.Checks)
	}
	c.resultBytes += float64(resultBytes)
}

// metrics reports each counter as a mean per run.
func (c *layerCounts) metrics(m map[string]metric) {
	per := func(x float64) float64 {
		if c.runs == 0 {
			return 0
		}
		return x / float64(c.runs)
	}
	m["sim.events"] = metric{per(float64(c.events)), "count"}
	m["mac.retries"] = metric{per(float64(c.macRetries)), "count"}
	m["mac.drops"] = metric{per(float64(c.macDrops)), "count"}
	m["aodv.discoveries"] = metric{per(float64(c.discoveries)), "count"}
	m["aodv.rerr_sent"] = metric{per(float64(c.rerrSent)), "count"}
	m["aodv.link_failures"] = metric{per(float64(c.linkFailures)), "count"}
	m["node.forwarded"] = metric{per(float64(c.forwarded)), "count"}
	m["queue.drops"] = metric{per(float64(c.queueDrops)), "count"}
	m["core.marked"] = metric{per(float64(c.marked)), "count"}
	m["tcp.segments_sent"] = metric{per(float64(c.segmentsSent)), "count"}
	m["tcp.retransmissions"] = metric{per(float64(c.retransmissions)), "count"}
	m["tcp.timeouts"] = metric{per(float64(c.timeouts)), "count"}
	useful := 0.0
	if c.payloadSent > 0 {
		useful = c.bytesAcked / c.payloadSent
	}
	m["tcp.useful_ratio"] = metric{useful, "ratio"}
	m["invariant.checks"] = metric{per(c.invariantChecks), "count"}
	m["jobs.result_bytes"] = metric{per(c.resultBytes), "B"}
}

// memSnap is the process's CPU time, allocation and GC state at a
// phase boundary.
type memSnap struct {
	cpuS                float64
	totalAlloc, pauseNs uint64
	numGC               uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{cpuS: processCPUSeconds(), totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, numGC: ms.NumGC}
}
