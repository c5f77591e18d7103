package core

import (
	"fmt"
	"strconv"
	"strings"

	"hslb/internal/cesm"
)

// WriteAMPL renders the spec's Table I model as AMPL source text — the
// artifact the paper's pipeline generates and ships to the NEOS service
// ("The AMPL code in HSLB is executed remotely via Python script on NEOS
// server", §V). It is the model BuildModel solves and campaign records
// digest: BuildModel parses this very text, so the served model and the
// library's are one model, and the discrete allowed sets, written as AMPL
// sets with binary selector families exactly as in Table I lines 29-31,
// parse back as SOS-1 sets. It writes all three objectives, layouts 1-3,
// the sync tolerance, the allowed sets and the 1/8° granularity. Numbers
// print in their shortest exact form, so the parsed model carries the
// coefficients bit for bit.
func WriteAMPL(s Spec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# HSLB %s model, %s resolution, N=%d (Table I layout %d)\n",
		s.Objective, s.Resolution, s.TotalNodes, int(s.Layout)+1)
	fmt.Fprintf(&b, "param N := %d;\n\n", s.TotalNodes)

	// A safe finite upper bound for time variables: everything on one node.
	timeUB := 0.0
	for _, c := range cesm.OptimizedComponents {
		timeUB += s.Perf[c].Eval(1)
	}
	timeUB = timeUB*2 + 1000

	capAtm := min(s.TotalNodes, cesm.AtmMaxNodes(s.Resolution))
	capOcn := min(s.TotalNodes, cesm.OceanMaxNodes(s.Resolution))
	caps := map[cesm.Component]int{
		cesm.ATM: capAtm, cesm.OCN: capOcn,
		cesm.ICE: s.TotalNodes, cesm.LND: s.TotalNodes,
	}
	for _, c := range cesm.OptimizedComponents {
		fmt.Fprintf(&b, "var n_%s integer >= 1 <= %d;\n", c, caps[c])
	}

	perfTerm := func(c cesm.Component) string {
		m := s.Perf[c]
		if m.B == 0 {
			return fmt.Sprintf("%s / n_%s + %s", num(m.A), c, num(m.D))
		}
		return fmt.Sprintf("%s / n_%s + %s * n_%s ^ %s + %s",
			num(m.A), c, num(m.B), c, num(m.C), num(m.D))
	}
	ice, lnd, atm, ocn := perfTerm(cesm.ICE), perfTerm(cesm.LND), perfTerm(cesm.ATM), perfTerm(cesm.OCN)

	// Objective (§III-D) and, for MinMax, the layout's sequencing rules
	// (Table I lines 13-17, 22-23, 27).
	switch s.Objective {
	case MinMax:
		fmt.Fprintf(&b, "var T >= 0 <= %s;\n", num(timeUB))
		if s.Layout == cesm.Layout1 {
			b.WriteString("var T_icelnd >= 0;\n")
		}
		b.WriteString("\nminimize total_time: T;\n\n")
		switch s.Layout {
		case cesm.Layout1:
			fmt.Fprintf(&b, "subject to icelnd_ge_ice: %s <= T_icelnd;\n", ice)
			fmt.Fprintf(&b, "subject to icelnd_ge_lnd: %s <= T_icelnd;\n", lnd)
			fmt.Fprintf(&b, "subject to T_ge_seq: T_icelnd + %s <= T;\n", atm)
			fmt.Fprintf(&b, "subject to T_ge_ocn: %s <= T;\n", ocn)
		case cesm.Layout2:
			fmt.Fprintf(&b, "subject to T_ge_seq: %s + %s + %s <= T;\n", ice, lnd, atm)
			fmt.Fprintf(&b, "subject to T_ge_ocn: %s <= T;\n", ocn)
		case cesm.Layout3:
			fmt.Fprintf(&b, "subject to T_ge_all: %s + %s + %s + %s <= T;\n", ice, lnd, atm, ocn)
		}
	case MinSum:
		fmt.Fprintf(&b, "\nminimize total_time: %s + %s + %s + %s;\n\n", lnd, ice, atm, ocn)
	case MaxMin:
		// S <= T_j(n_j) ⇔ S − T_j ≤ 0 (nonconvex; see exactRoute).
		fmt.Fprintf(&b, "var S >= 0 <= %s;\n", num(timeUB))
		b.WriteString("\nmaximize min_time: S;\n\n")
		for _, c := range cesm.OptimizedComponents {
			fmt.Fprintf(&b, "subject to smin_%s: S - (%s) <= 0;\n", c, perfTerm(c))
		}
	default:
		return "", fmt.Errorf("core: unknown objective %v", s.Objective)
	}

	// Node constraints (Table I lines 20-21, 24-26, 28). Under the MaxMin
	// objective the inequality form is degenerate — maximizing the minimum
	// time of decreasing curves just starves every component — so the
	// layout-1 capacities become equalities: the budget must be exhausted
	// for max-min balancing to mean anything.
	capSense := "<="
	if s.Objective == MaxMin {
		capSense = "="
	}
	switch s.Layout {
	case cesm.Layout1:
		fmt.Fprintf(&b, "subject to cap_atm_ocn: n_atm + n_ocn %s N;\n", capSense)
		fmt.Fprintf(&b, "subject to share_icelnd: n_ice + n_lnd - n_atm %s 0;\n", capSense)
	case cesm.Layout2:
		for _, c := range []cesm.Component{cesm.ATM, cesm.ICE, cesm.LND} {
			fmt.Fprintf(&b, "subject to cap_%s: n_%s + n_ocn <= N;\n", c, c)
		}
	case cesm.Layout3:
		// Per-component n_j <= N already enforced by variable bounds.
	default:
		return "", fmt.Errorf("core: unknown layout %v", s.Layout)
	}

	// Synchronization tolerance (Table I lines 18-19), optional.
	if s.SyncTol > 0 && s.Layout == cesm.Layout1 {
		fmt.Fprintf(&b, "subject to sync_hi: (%s) - (%s) <= %s;\n", lnd, ice, num(s.SyncTol))
		fmt.Fprintf(&b, "subject to sync_lo: -((%s) - (%s)) <= %s;\n", lnd, ice, num(s.SyncTol))
	}

	// Discrete allowed sets (Table I lines 5-6, 29-31).
	if s.ConstrainOcean {
		vals := candidateCounts(s, cesm.OCN, capOcn)
		if len(vals) == 0 {
			return "", fmt.Errorf("core: no allowed ocean count fits in %d nodes", capOcn)
		}
		writeSelection(&b, "OCN_SET", "z_ocn", "n_ocn", vals)
	} else if s.Resolution == cesm.Res8thDeg {
		writeMultiple(&b, "n_ocn", cesm.OceanNodeMultiple, capOcn)
	}
	if s.Resolution == cesm.Res1Deg {
		if s.ConstrainAtm {
			vals := candidateCounts(s, cesm.ATM, capAtm)
			if len(vals) == 0 {
				return "", fmt.Errorf("core: no allowed atmosphere count fits in %d nodes", capAtm)
			}
			writeSelection(&b, "ATM_SET", "z_atm", "n_atm", vals)
		}
	} else {
		writeMultiple(&b, "n_atm", cesm.AtmNodeMultiple, capAtm)
	}
	return b.String(), nil
}

// num prints v in the shortest form that parses back to v exactly.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeSelection emits the SOS-1 selection structure of Table I lines
// 29-31, Σ z_k = 1 and Σ k·z_k = n, in the form internal/ampl registers
// as an SOS-1 set.
func writeSelection(b *strings.Builder, setName, zName, nVar string, vals []int) {
	elems := make([]string, len(vals))
	for i, v := range vals {
		elems[i] = strconv.Itoa(v)
	}
	fmt.Fprintf(b, "\nset %s := {%s};\n", setName, strings.Join(elems, ", "))
	fmt.Fprintf(b, "var %s {%s} binary;\n", zName, setName)
	fmt.Fprintf(b, "subject to %s_pick: sum {k in %s} %s[k] = 1;\n", zName, setName, zName)
	fmt.Fprintf(b, "subject to %s_link: sum {k in %s} k * %s[k] - %s = 0;\n",
		zName, setName, zName, nVar)
}

// writeMultiple emits the decomposition-granularity constraint n = mult·k.
func writeMultiple(b *strings.Builder, nVar string, mult, upper int) {
	fmt.Fprintf(b, "\nvar %s_k integer >= 1 <= %d;\n", nVar, max(1, upper/mult))
	fmt.Fprintf(b, "subject to %s_gran: %s - %d * %s_k = 0;\n", nVar, nVar, mult, nVar)
}
