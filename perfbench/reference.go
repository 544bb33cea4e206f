package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the workload seed whose results digests are pinned.
const defaultSeed = 1

// referenceJSON pins, per workload, the results digest of every job at the
// default seed (job name -> sweep.ResultDigest). Regenerate it with
// --write-reference only when a change is meant to move simulated results.
//
//go:embed reference.json
var referenceJSON []byte

// checkReference compares a pass at the default seed with the pinned
// digests and returns one failure per job that differs, is missing or is
// unexpected.
func checkReference(workload string, p *pass) []string {
	var ref map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return []string{fmt.Sprintf("reference digests: %v", err)}
	}
	want, ok := ref[workload]
	if !ok {
		return []string{"no reference digests for " + workload}
	}
	var fails []string
	seen := map[string]bool{}
	for i, j := range p.jobs {
		seen[j.name()] = true
		switch w, ok := want[j.name()]; {
		case !ok:
			fails = append(fails, j.name()+": job has no reference digest")
		case p.digests[i] != w:
			fails = append(fails, j.name()+": results digest differs from the reference")
		}
	}
	for name := range want {
		if !seen[name] {
			fails = append(fails, name+": reference job did not run")
		}
	}
	sort.Strings(fails)
	return fails
}

// writeReference runs one pass of every workload at the default seed and
// writes the digests to path.
func writeReference(path, dir string) int {
	workdir := filepath.Join(dir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(workdir)
	e := &env{seed: defaultSeed, workdir: workdir, workers: 1}
	ref := map[string]map[string]string{}
	for _, name := range scenarioNames() {
		p := scenarios[name].run(e)
		if len(p.failures) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p.failures[0])
			return 1
		}
		ref[name] = map[string]string{}
		for i, j := range p.jobs {
			ref[name][j.name()] = p.digests[i]
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
