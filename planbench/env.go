package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// envStamp records the host a run measured on, so drift between two sets
// of runs shows next to every number.
type envStamp struct {
	// Commit is the git revision of the checkout, or a digest of its Go
	// sources ("tree-sha256:…") when the checkout is not a git repository.
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// RefMs is the median wall time of a fixed single-threaded CPU loop.
	RefMs float64 `json:"ref_ms"`
	// Parallelism is the measured effective core count: GOMAXPROCS copies
	// of the reference loop run at once, compared with one copy alone.
	Parallelism float64 `json:"parallelism"`
}

func stampEnv(root string) envStamp {
	e := envStamp{
		Commit:     commitOf(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	e.RefMs, e.Parallelism = probeHost()
	return e
}

// probeHost times the reference loop alone (median of five) and as
// GOMAXPROCS concurrent copies (median of three), and returns the single
// loop's wall time and the effective core count. It takes about half a
// second.
func probeHost() (refMs, parallelism float64) {
	procs := runtime.GOMAXPROCS(0)
	var single, multi []float64
	for i := 0; i < 5; i++ {
		single = append(single, ms(timeRefLoops(1)))
	}
	for i := 0; i < 3; i++ {
		multi = append(multi, ms(timeRefLoops(procs)))
	}
	refMs = median(single)
	return refMs, float64(procs) * refMs / median(multi)
}

// The host gate. A shared host sometimes gives the run fewer cores than
// GOMAXPROCS, and a pass measured then is up to twice as slow. Before each
// timed pass the run re-probes until the measured parallelism reaches
// hostMinShare of GOMAXPROCS, for at most hostWait, and then measures
// anyway; the details line records the wait and the parallelism before and
// after the pass, so a run made on a reduced host shows. The wait is short
// because the whole benchmark must fit its time budget: it rides out brief
// dips, not reduced periods that last minutes.
const (
	hostMinShare = 0.75
	hostWait     = 5 * time.Second
)

// hostReading is the host gate's record of one timed pass.
type hostReading struct {
	WaitedS           float64 `json:"waited_s"`
	ParallelismBefore float64 `json:"parallelism_before"`
	ParallelismAfter  float64 `json:"parallelism_after"`
}

// awaitHost blocks until the host gives the run hostMinShare of GOMAXPROCS
// cores, or hostWait has passed, and returns the last reading.
func awaitHost() hostReading {
	want := hostMinShare * float64(runtime.GOMAXPROCS(0))
	start := time.Now()
	for {
		_, par := probeHost()
		if par >= want || time.Since(start) >= hostWait {
			return hostReading{WaitedS: time.Since(start).Seconds(), ParallelismBefore: par}
		}
	}
}

// refLoopIters sizes the reference loop to a few tens of milliseconds.
const refLoopIters = 20_000_000

// refSink keeps the reference loop's result observable so the compiler
// cannot drop the loop.
var refSink uint64

// timeRefLoops runs n copies of the reference loop concurrently and returns
// the wall time until the last finishes.
func timeRefLoops(n int) time.Duration {
	var wg sync.WaitGroup
	out := make([]uint64, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < refLoopIters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 29
			}
			out[g] = x
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, x := range out {
		refSink ^= x
	}
	return d
}

// commitOf names the source revision under root.
func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return treeDigest(root)
}

// treeDigest hashes the path and content of every Go source and module file
// under root, skipping hidden directories (build output, VCS metadata).
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
