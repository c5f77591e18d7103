// Package hslb reproduces "The Heuristic Static Load-Balancing Algorithm
// Applied to the Community Earth System Model" (Alexeev, Mickelson,
// Leyffer, Jacob, Craig — IPDPS Workshops 2014) as a self-contained Go
// library: the HSLB gather→fit→solve→execute pipeline, the MINLP modeling
// and branch-and-bound solver stack it depends on (simplex LP, MILP,
// outer-approximation MINLP with tangent-cut LP subproblems and SOS-1
// branching), a calibrated CESM performance simulator standing in for the
// Intrepid Blue Gene/P runs, an AMPL-subset parser, and a NEOS-like HTTP
// solve service.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results. cmd/experiments
// regenerates every table and figure of the paper's evaluation section:
//
//	go run ./cmd/experiments -exp all
package hslb
