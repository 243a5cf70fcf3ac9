package main

import (
	"container/heap"
	"runtime"
	"time"
)

// Host-normalised seconds. On the shared 2-vCPU host the baseline was
// recorded on, speed drifts by up to a quarter from one minute to the
// next and by a factor of two over tens of minutes (neighbours share
// its cores and caches, and the hypervisor steals time), so raw wall
// times of identical runs differ by more than any useful bound. Right
// after each simulation run, the benchmark times a short calibration
// loop that does the simulator's kind of work: a heap of freshly
// allocated closure events, plus a map. The loop is part of the
// benchmark, not the program, so no change to the program can move it. A run's normalised time is its wall time × calRefS ÷ the time of
// the calibration that followed it; a batch's is its makespan × calRefS
// ÷ the median calibration of the runs the batch timed itself.

// calRefS is a typical calibration time on the host the baseline was
// recorded on (cal_s in its reports ranged from 1.9 to 5 ms as that
// host's speed swung), so that there normalised seconds read roughly as
// wall seconds.
const calRefS = 0.0045

// calEvents is how many events one calibration pushes through its heap.
const calEvents = 15000

type calEvent struct {
	at int64
	fn func()
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

var calSink int

// calibrate runs the calibration loop once and returns its wall seconds.
func calibrate() float64 {
	start := time.Now()
	var q calHeap
	seen := make(map[int64]int)
	x := uint64(1)
	for i := 0; i < calEvents; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(&q, &calEvent{at: int64(x >> 40), fn: func() { calSink++ }})
		if q.Len() > 512 {
			e := heap.Pop(&q).(*calEvent)
			e.fn()
			seen[e.at%4096]++
		}
	}
	calSink += len(seen)
	return time.Since(start).Seconds()
}

// calibrationAlloc is how many bytes one calibration allocates. The
// loop is deterministic, so this is the same every time up to a few
// bytes, and the allocation metric subtracts it per calibration. Call it before the workload starts
// anything that allocates concurrently.
func calibrationAlloc() uint64 {
	calibrate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calibrate()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
