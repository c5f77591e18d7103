package ampl

import (
	"strings"
	"testing"
)

// selectionModel is Table I's selection pair over O; each near miss below
// edits one piece of it.
const selectionModel = `
set O := {2, 4, 24};
var n integer >= 1 <= 30;
var z {O} binary;
var T >= 0 <= 10000;
minimize total: T;
subject to t: 100 / n + 5 <= T;
s.t. pick: sum {k in O} z[k] = 1;
s.t. link: sum {k in O} k * z[k] - n = 0;
`

func TestSelectionSetRecognized(t *testing.T) {
	res, err := Parse(selectionModel)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	if len(m.SOS) != 1 {
		t.Fatalf("got %d SOS sets, want 1", len(m.SOS))
	}
	s := m.SOS[0]
	if s.Target != res.VarIndex["n"] {
		t.Errorf("target %d, want n (%d)", s.Target, res.VarIndex["n"])
	}
	fam := res.IndexedVarIndex["z"]
	for k, w := range []float64{2, 4, 24} {
		if s.Selectors[k] != fam[w] || s.Weights[k] != w {
			t.Errorf("member %d: selector %d weight %v, want %d and %v", k, s.Selectors[k], s.Weights[k], fam[w], w)
		}
	}
	if m.Cons[s.Pick1Con].Name != "pick" || m.Cons[s.LinkCon].Name != "link" {
		t.Errorf("pick row %q, link row %q", m.Cons[s.Pick1Con].Name, m.Cons[s.LinkCon].Name)
	}
}

func TestSelectionSetNearMissesParsePlain(t *testing.T) {
	cases := []struct{ name, from, to string }{
		{"pick rhs 2", "z[k] = 1;", "z[k] = 2;"},
		{"link weight not the element", "k * z[k] - n", "2 * k * z[k] - n"},
		{"target coefficient +1", "k * z[k] - n", "k * z[k] + n"},
		{"continuous target", "var n integer >= 1 <= 30;", "var n >= 1 <= 30;"},
		{"integer family", "var z {O} binary;", "var z {O} integer >= 0 <= 1;"},
		{"missing link row", "s.t. link: sum {k in O} k * z[k] - n = 0;", ""},
		{"descending set", "{2, 4, 24}", "{24, 4, 2}"},
		{"selector used elsewhere", "100 / n + 5 <= T", "100 / n + 5 + z[4] <= T"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := strings.Replace(selectionModel, c.from, c.to, 1)
			if src == selectionModel {
				t.Fatalf("edit %q not applied", c.from)
			}
			res, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Model.SOS) != 0 {
				t.Fatalf("registered %+v", res.Model.SOS)
			}
		})
	}
}
