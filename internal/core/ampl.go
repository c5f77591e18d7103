package core

import (
	"fmt"
	"strings"

	"hslb/internal/cesm"
)

// WriteAMPL renders the spec's Table I model as AMPL source text — the
// artifact the paper's pipeline generates and ships to the NEOS service
// ("The AMPL code in HSLB is executed remotely via Python script on NEOS
// server", §V). The output parses with internal/ampl and solves to the same
// optimum as BuildModel; discrete allowed sets appear as AMPL sets with
// binary selector families exactly as in Table I lines 29-31.
//
// Only the MinMax objective is emitted (the paper's choice).
func WriteAMPL(s Spec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	if s.Objective != MinMax {
		return "", fmt.Errorf("core: AMPL export supports the min-max objective only, got %v", s.Objective)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# HSLB %s model, %s resolution, N=%d (Table I layout %d)\n",
		s.Objective, s.Resolution, s.TotalNodes, int(s.Layout)+1)
	fmt.Fprintf(&b, "param N := %d;\n\n", s.TotalNodes)

	timeUB := 0.0
	for _, c := range cesm.OptimizedComponents {
		timeUB += s.Perf[c].Eval(1)
	}
	timeUB = timeUB*2 + 1000

	capAtm := minInt(s.TotalNodes, cesm.AtmMaxNodes(s.Resolution))
	capOcn := minInt(s.TotalNodes, cesm.OceanMaxNodes(s.Resolution))
	caps := map[cesm.Component]int{
		cesm.ATM: capAtm, cesm.OCN: capOcn,
		cesm.ICE: s.TotalNodes, cesm.LND: s.TotalNodes,
	}
	for _, c := range cesm.OptimizedComponents {
		fmt.Fprintf(&b, "var n_%s integer >= 1 <= %d;\n", c, caps[c])
	}
	fmt.Fprintf(&b, "var T >= 0 <= %.6g;\n", timeUB)
	if s.Layout == cesm.Layout1 {
		fmt.Fprintf(&b, "var T_icelnd >= 0 <= %.6g;\n", timeUB)
	}
	b.WriteString("\nminimize total_time: T;\n\n")

	perfTerm := func(c cesm.Component) string {
		m := s.Perf[c]
		if m.B == 0 {
			return fmt.Sprintf("%.10g / n_%s + %.10g", m.A, c, m.D)
		}
		return fmt.Sprintf("%.10g / n_%s + %.10g * n_%s ^ %.10g + %.10g",
			m.A, c, m.B, c, m.C, m.D)
	}

	// Temporal constraints (Table I lines 14-17, 22-23, 27).
	switch s.Layout {
	case cesm.Layout1:
		fmt.Fprintf(&b, "subject to icelnd_ge_ice: %s <= T_icelnd;\n", perfTerm(cesm.ICE))
		fmt.Fprintf(&b, "subject to icelnd_ge_lnd: %s <= T_icelnd;\n", perfTerm(cesm.LND))
		fmt.Fprintf(&b, "subject to T_ge_seq: T_icelnd + %s <= T;\n", perfTerm(cesm.ATM))
		fmt.Fprintf(&b, "subject to T_ge_ocn: %s <= T;\n", perfTerm(cesm.OCN))
		b.WriteString("subject to cap_atm_ocn: n_atm + n_ocn <= N;\n")
		b.WriteString("subject to share_icelnd: n_ice + n_lnd - n_atm <= 0;\n")
		if s.SyncTol > 0 {
			fmt.Fprintf(&b, "subject to sync_hi: (%s) - (%s) <= %.10g;\n",
				perfTerm(cesm.LND), perfTerm(cesm.ICE), s.SyncTol)
			fmt.Fprintf(&b, "subject to sync_lo: (%s) - (%s) <= %.10g;\n",
				perfTerm(cesm.ICE), perfTerm(cesm.LND), s.SyncTol)
		}
	case cesm.Layout2:
		fmt.Fprintf(&b, "subject to T_ge_seq: %s + %s + %s <= T;\n",
			perfTerm(cesm.ICE), perfTerm(cesm.LND), perfTerm(cesm.ATM))
		fmt.Fprintf(&b, "subject to T_ge_ocn: %s <= T;\n", perfTerm(cesm.OCN))
		for _, c := range []cesm.Component{cesm.ATM, cesm.ICE, cesm.LND} {
			fmt.Fprintf(&b, "subject to cap_%s: n_%s + n_ocn <= N;\n", c, c)
		}
	case cesm.Layout3:
		fmt.Fprintf(&b, "subject to T_ge_all: %s + %s + %s + %s <= T;\n",
			perfTerm(cesm.ICE), perfTerm(cesm.LND), perfTerm(cesm.ATM), perfTerm(cesm.OCN))
	default:
		return "", fmt.Errorf("core: unknown layout %v", s.Layout)
	}

	// Discrete allowed sets (Table I lines 5-6, 29-31).
	if s.ConstrainOcean {
		vals := floats(candidateCounts(s, cesm.OCN, capOcn))
		if len(vals) == 0 {
			return "", fmt.Errorf("core: no allowed ocean count fits in %d nodes", capOcn)
		}
		writeSelection(&b, "OCN_SET", "z_ocn", "n_ocn", vals)
	} else if s.Resolution == cesm.Res8thDeg {
		writeMultiple(&b, "n_ocn", cesm.OceanNodeMultiple, capOcn)
	}
	if s.Resolution == cesm.Res1Deg {
		if s.ConstrainAtm {
			vals := floats(candidateCounts(s, cesm.ATM, capAtm))
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

// writeSelection emits the SOS-style selection structure of Table I lines
// 29-31: Σ z_k = 1 and Σ k·z_k = n.
func writeSelection(b *strings.Builder, setName, zName, nVar string, vals []float64) {
	b.WriteString("\nset " + setName + " := {")
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%g", v)
	}
	b.WriteString("};\n")
	fmt.Fprintf(b, "var %s {%s} binary;\n", zName, setName)
	fmt.Fprintf(b, "subject to %s_pick: sum {k in %s} %s[k] = 1;\n", zName, setName, zName)
	fmt.Fprintf(b, "subject to %s_link: sum {k in %s} k * %s[k] - %s = 0;\n",
		zName, setName, zName, nVar)
}

// writeMultiple emits the decomposition-granularity constraint n = mult·k.
func writeMultiple(b *strings.Builder, nVar string, mult, upper int) {
	k := upper / mult
	if k < 1 {
		k = 1
	}
	fmt.Fprintf(b, "\nvar %s_k integer >= 1 <= %d;\n", nVar, k)
	fmt.Fprintf(b, "subject to %s_gran: %s - %d * %s_k = 0;\n", nVar, nVar, mult, nVar)
}
