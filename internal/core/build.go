package core

import (
	"fmt"

	"hslb/internal/ampl"
	"hslb/internal/cesm"
	"hslb/internal/model"
)

// BuildModel constructs the Table I MINLP for the spec by parsing the AMPL
// text WriteAMPL renders for it — the text the service is sent — so the
// library and the served path solve one model, SOS-1 selection sets
// included. The returned Vars locates the decision variables inside the
// model.
func BuildModel(s Spec) (*model.Model, *Vars, error) {
	src, err := WriteAMPL(s)
	if err != nil {
		return nil, nil, err
	}
	res, err := ampl.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("core: Table I AMPL does not parse: %w", err)
	}
	index := func(name string) int {
		if i, ok := res.VarIndex[name]; ok {
			return i
		}
		return -1
	}
	vars := &Vars{T: index("T"), Ticelnd: index("T_icelnd"), N: map[cesm.Component]int{}}
	for _, c := range cesm.OptimizedComponents {
		vars.N[c] = index("n_" + c.String())
	}
	return res.Model, vars, nil
}
