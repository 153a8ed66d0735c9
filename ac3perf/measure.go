package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

// run is one execution of a workload through engine.New and Run, with
// the host cost of Run.
type run struct {
	agg         *engine.Aggregate
	fingerprint string
	workers     int
	wall        time.Duration
	cpu         time.Duration // process user+sys CPU
	mallocs     uint64
	allocBytes  uint64
	peakHeap    uint64 // sampled HeapAlloc high-water; 0 in a profiled run
}

// execute runs cfg once. With profile set it records a CPU profile of
// Run into profile instead of sampling the heap.
func execute(cfg engine.Config, profile *bytes.Buffer) (run, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return run{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := processCPU()
	if err != nil {
		return run{}, err
	}

	var sampler *bench.MemSampler
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return run{}, err
		}
	} else {
		sampler = bench.StartMemSampler()
	}
	start := time.Now()
	agg, runErr := eng.Run()
	wall := time.Since(start)
	var peak uint64
	if profile != nil {
		pprof.StopCPUProfile()
	} else {
		peak = sampler.Stop().PeakHeapBytes
	}

	cpu1, err := processCPU()
	if err != nil {
		return run{}, err
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		return run{}, runErr
	}
	fp, err := fingerprint(agg)
	if err != nil {
		return run{}, err
	}
	return run{
		agg:         agg,
		fingerprint: fp,
		workers:     cfg.Workers,
		wall:        wall,
		cpu:         cpu1 - cpu0,
		mallocs:     after.Mallocs - before.Mallocs,
		allocBytes:  after.TotalAlloc - before.TotalAlloc,
		peakHeap:    peak,
	}, nil
}

// fingerprint hashes the aggregate's JSON, which the engine promises
// is byte-identical for every run of one configuration at any worker
// count.
func fingerprint(agg *engine.Aggregate) (string, error) {
	b, err := json.Marshal(agg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// processCPU is the user+sys CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// measureSetup starts this program setupProbes times in probe mode and
// returns each process's wall time from start to exit: process start,
// configuration, engine.New and the shard-world build, with one AC2T
// per shard run through. Probe i runs the workload seeded seed+i: how
// long a shard's first AC2T takes depends on the graph size and
// scenario its seed draws, and over many seeds the median measures
// set-up rather than one seed's draw.
func measureSetup(w workload, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	secs := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe", "--workload", w.name, "--seed", strconv.FormatUint(seed+uint64(i), 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// probe is the body of a setup-probe process: the workload with one
// AC2T per shard, which must settle.
func probe(w workload, seed uint64) error {
	eng, err := engine.New(w.config(seed, benchShards, runtime.NumCPU()))
	if err != nil {
		return err
	}
	agg, err := eng.Run()
	if err != nil {
		return err
	}
	if agg.Graded != benchShards {
		return fmt.Errorf("setup probe graded %d of %d AC2Ts", agg.Graded, benchShards)
	}
	return nil
}
