package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runMeta describes the run and the machine, so that unlike runs are never
// compared as like.
func runMeta(cfg config, scale map[string]int) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"scale":         scale,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when it was built
// inside a repository; source_sha256 identifies the code otherwise.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and Go source under root (the checkout
// root, where run.sh starts the benchmark) in path order, skipping hidden
// directories such as .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		buf, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(buf)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
