package main

import "strings"

// targets records, for each per-layer metric (matched by name prefix,
// first match wins), the workload and end-to-end metrics a change to
// that layer should move. Every traced run writes the mapping into its
// result record.
var targets = []struct{ prefix, target string }{
	{"expt.", "suite wall_s, cpu_s"},
	{"pool.", "suite wall_s"},
	{"core.new_us", "suite wall_s (a system per trial)"},
	{"core.baseline.", "engine wall_s (turbo lane); suite wall_s"},
	{"core.", "engine wall_s (ticked slices); suite wall_s"},
	{"machine.", "engine wall_s; suite wall_s"},
	{"dev.", "engine wall_s; suite wall_s"},
	{"fault.", "engine wall_s; suite wall_s"},
	{"obs.probe_overhead", "engine wall_s; suite wall_s"},
	{"cluster.", "engine wall_s; suite wall_s (E14, E15)"},
	{"serve.run_", "serve op_p50_ms, op_tail_ms, ops_per_s"},
	{"serve.sse_", "serve op_tail_ms"},
	{"serve.", "serve op_p50_ms, op_tail_ms"},
	{"obs.", "serve op_p50_ms, op_tail_ms"},
	{"imglint.", "certify wall_s, setup_s"},
	{"model.", "certify wall_s, setup_s"},
	{"guest.", "certify wall_s, setup_s"},
	{"trace.suite.", "suite wall_s"},
	{"trace.engine.", "engine wall_s"},
	{"trace.serve.", "serve op_p50_ms"},
	{"trace.certify.", "certify wall_s"},
}

// targetOf returns the target recorded for a per-layer metric, or ""
// when none matches.
func targetOf(name string) string {
	for _, t := range targets {
		if strings.HasPrefix(name, t.prefix) {
			return t.target
		}
	}
	return ""
}
