package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// untracedMediansFile holds, per workload, the medians of the end-to-end
// metrics over ten untraced runs. A traced run prints its own end-to-end
// values next to them: the difference is the cost of tracing.
var untracedMediansFile = filepath.Join("perfbench", "untraced_medians.json")

func compareUntraced(out *outcome, workload string) {
	raw, err := os.ReadFile(untracedMediansFile)
	var all map[string]map[string]float64
	if err == nil {
		err = json.Unmarshal(raw, &all)
	}
	if err != nil {
		out.note("tracing overhead: no untraced medians to compare with (%v)", err)
		return
	}
	base := all[workload]
	out.note("tracing overhead: traced value vs untraced median (%s)", untracedMediansFile)
	for _, d := range append(append([]metricDef(nil), endToEnd...), reportedOnly...) {
		v, ok := out.e2e[d.name]
		b, okb := base[d.name]
		if !ok || !okb || b == 0 {
			continue
		}
		out.note("  %-14s traced %12.6g  untraced %12.6g  %+7.2f%%", d.name, v, b, 100*(v-b)/b)
	}
}
