package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is a shared two-core VM whose speed
// drifts by up to 1.8x within minutes: raw crawl times moved by 29%
// between two back-to-back sets of the same commit. The probe below is a
// fixed workload built only from the standard library — integer
// arithmetic, memory streaming and random reads, JSON, loopback TCP — so
// no change to the repository changes its cost. A run times it before
// every set-up and every round and scales each of its timing metrics by
// probeRef over the probe's median: times read as if the host ran at its
// reference speed. README.md gives the measured effect.

// probeRef is the probe's median time on the reference host.
const probeRef = 80 * time.Millisecond

var probeSink uint64

// probe runs the whole probe once and returns its duration.
func probe() (time.Duration, error) {
	w, err := probeWords()
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	t0 := time.Now()
	probeSpin()
	probeMem(w)
	probeJSON()
	if err := probeNet(); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	return time.Since(t0), nil
}

func probeSpin() {
	x := uint64(1)
	for range 25_000_000 {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink += x
}

// probeWords is the memory probe's 32 MiB array, mapped outside the Go heap
// so that it counts in neither live_heap_mb nor the collector's work.
var probeWords = sync.OnceValues(func() ([]uint64, error) {
	const n = 4 << 20
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	for i := range w {
		w[i] = uint64(i)
	}
	return w, nil
})

func probeMem(w []uint64) {
	var s uint64
	for _, v := range w {
		s += v
	}
	x := uint64(88172645463325252)
	for range 1_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += w[x&uint64(len(w)-1)]
	}
	probeSink += s
}

type probeRow struct{ A, B, C, D, E, F int64 }

func probeJSON() {
	rows := make([]probeRow, 256)
	for i := range rows {
		v := int64(i)
		rows[i] = probeRow{v, 7 * v, 13 * v, 1990 + v%30, 1000 * v, 17 * v}
	}
	for range 40 {
		b, _ := json.Marshal(rows)
		var out []probeRow
		json.Unmarshal(b, &out)
		probeSink += uint64(len(out))
	}
}

// probeNet ping-pongs 1000 64-byte messages over a loopback connection.
func probeNet() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	defer func() { <-done }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	defer c.Close()
	buf := make([]byte, 64)
	for range 1000 {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
	}
	return nil
}
