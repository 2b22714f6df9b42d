package engine_test

import (
	"repro/internal/baseline"
	"repro/internal/bitmat"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/sparql"
)

// The baseline imports engine, so the third opinion of the worker sweeps
// is installed from this external test package.
func init() {
	engine.BaselineOpinion = func(idx bitmat.Source, q *sparql.Query, want []string, vars []sparql.Var) string {
		for _, pol := range []baseline.Policy{baseline.OriginalOrder, baseline.SelectiveMaster} {
			res, err := baseline.New(idx, pol).Execute(q)
			if err != nil {
				return pol.String() + ": " + err.Error()
			}
			if v := difftest.Verdict(difftest.Keys(res.Vars, res.Rows, vars), want); v != "" {
				return pol.String() + ": " + v
			}
		}
		return ""
	}
}
