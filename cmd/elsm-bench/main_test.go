package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	figNames := func(spec string) (bool, []string) {
		t.Helper()
		table1, figs, err := selectExperiments(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		var out []string
		for _, e := range figs {
			out = append(out, e.Name)
		}
		return table1, out
	}
	if table1, figs := figNames("all"); !table1 || len(figs) != len(names())-1 {
		t.Errorf("all = table1 %v, %v", table1, figs)
	}
	if table1, figs := figNames("table1"); !table1 || len(figs) != 0 {
		t.Errorf("table1 = table1 %v, %v", table1, figs)
	}
	// Paper order, whatever the order asked in.
	if table1, figs := figNames(" fig6a,fig2 ,"); table1 || strings.Join(figs, ",") != "fig2,fig6a" {
		t.Errorf("fig6a,fig2 = table1 %v, %v", table1, figs)
	}
	for _, spec := range []string{"ablation-repl", "fig2,ablation-earlystop", "fig5"} {
		_, _, err := selectExperiments(spec)
		if err == nil || !strings.Contains(err.Error(), "fig2") {
			t.Errorf("%q: err = %v, want a refusal naming the valid experiments", spec, err)
		}
	}
}
