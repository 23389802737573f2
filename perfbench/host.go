package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostRecord is printed with every run so an outlier run can be traced to
// the host it ran on: CPU count, GOMAXPROCS, Go version, the code that
// ran, the seed, and the CPU time the hypervisor stole during the run.
type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw one; Tree is a SHA-256 over the checkout's Go sources and
	// module files, which identifies the code when there is no VCS.
	Commit     string  `json:"commit"`
	Tree       string  `json:"tree_sha256"`
	StealTicks int64   `json:"steal_ticks"` // /proc/stat steal delta over the run; -1 if unreadable
	WallS      float64 `json:"wall_s"`

	steal0 int64
	start  time.Time
}

func newHost(seed uint64, workload string) *hostRecord {
	h := &hostRecord{
		Workload:   workload,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Tree:       treeDigest("."),
		steal0:     stealTicks(),
		start:      time.Now(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h *hostRecord) finish() {
	h.WallS = time.Since(h.start).Seconds()
	h.StealTicks = -1
	if s1 := stealTicks(); s1 >= 0 && h.steal0 >= 0 {
		h.StealTicks = s1 - h.steal0
	}
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line of /proc/stat), or -1 when it is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// treeDigest hashes every .go, go.mod and .json file under root, in path
// order, skipping hidden and build directories. Unreadable trees give
// "unknown"; the digest is informational.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
