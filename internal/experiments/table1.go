package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/rules"
)

// Experiment E1 — paper Table 1: the feature comparison of model
// management systems. The rows for other systems are the paper's reported
// values; the Gallery row is *measured*: each capability is exercised
// end-to-end against a live registry + rule engine, and the cell is Y only
// if the probe succeeds.

// Table1Features lists Table 1's columns in order.
var Table1Features = []string{
	"Saving", "Loading", "Metadata", "Searching", "Serving", "Metrics", "Orchestration",
}

// Table1Row is one system's feature vector.
type Table1Row struct {
	System   string
	Features map[string]bool
	// Measured is true for rows proven by probes rather than quoted.
	Measured bool
}

// Table1Reported reproduces the paper's rows for the compared systems.
func Table1Reported() []Table1Row {
	mk := func(system string, vals ...bool) Table1Row {
		f := make(map[string]bool, len(Table1Features))
		for i, name := range Table1Features {
			f[name] = vals[i]
		}
		return Table1Row{System: system, Features: f}
	}
	return []Table1Row{
		mk("ModelDB", true, true, true, false, true, true, false),
		mk("ModelHUB", true, true, true, true, false, true, false),
		mk("Metadata Tracking", false, false, true, true, true, false, true),
		mk("Velox", true, true, true, false, true, true, true),
		mk("Clipper", true, true, false, false, true, true, true),
		mk("MLFlow", true, true, true, true, true, true, false),
		mk("TFX", true, true, true, false, true, true, true),
		mk("Azure ML", true, true, false, false, true, false, true),
		mk("SageMaker", true, true, false, true, false, true, true),
	}
}

// Table1Probe exercises every Table 1 capability against this
// implementation and returns the measured Gallery row.
func Table1Probe() (Table1Row, error) {
	env := mustEnv(1)
	row := Table1Row{System: "Gallery (this repo)", Measured: true, Features: map[string]bool{}}

	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "table1_probe", Project: "probe", Name: "linear_regression", Domain: "UberX",
	})
	if err != nil {
		return row, fmt.Errorf("register: %w", err)
	}

	// Saving: store a model blob with metadata.
	blob := []byte("opaque serialized model")
	in, err := env.Reg.UploadInstance(core.InstanceSpec{
		ModelID: m.ID, Name: "probe_instance", City: "sf", Framework: "any",
		TrainingData: "hdfs://probe", CodePointer: "git://probe",
	}, blob)
	row.Features["Saving"] = err == nil
	if err != nil {
		return row, nil
	}

	// Loading: fetch the exact bytes back.
	got, err := env.Reg.FetchBlob(context.Background(), in.ID)
	row.Features["Loading"] = err == nil && bytes.Equal(got, blob)

	// Metadata: stored metadata round-trips.
	meta, err := env.Reg.GetInstance(context.Background(), in.ID)
	row.Features["Metadata"] = err == nil && meta.TrainingData == "hdfs://probe" && meta.CodePointer == "git://probe"

	// Metrics: store and read back performance measurements.
	if _, err := env.Reg.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0.04); err == nil {
		vals, err := env.Reg.LatestMetrics(in.ID, core.ScopeValidation)
		row.Features["Metrics"] = err == nil && vals["bias"] == 0.04
	}

	// Searching: constraint query over metadata + metrics finds the
	// instance (paper Listing 5).
	found, err := env.Reg.SearchInstances(core.InstanceFilter{
		Project: "probe", MetricName: "bias", MetricOp: relstore.OpLt, MetricValue: 0.25,
	})
	row.Features["Searching"] = err == nil && len(found) == 1 && found[0].ID == in.ID

	// Serving: a selection rule returns a champion to serve.
	sel := &rules.Rule{
		UUID: "probe-selection", Team: "probe", Kind: rules.KindSelection,
		When:           `has(metrics, "bias")`,
		ModelSelection: "a.created_time > b.created_time",
	}
	if _, err := env.Repo.Commit("probe", "selection", []*rules.Rule{sel}, nil); err == nil {
		champ, err := env.Engine.SelectModel("probe-selection", core.InstanceFilter{})
		row.Features["Serving"] = err == nil && champ.ID == in.ID
	}

	// Orchestration: an action rule fires a deployment callback on a
	// metric update event.
	deployed := false
	env.Engine.RegisterAction("probe_deploy", func(*rules.ActionContext) error {
		deployed = true
		return nil
	})
	act := &rules.Rule{
		UUID: "probe-action", Team: "probe", Kind: rules.KindAction,
		When:    "metrics.bias <= 0.1",
		Actions: []rules.ActionRef{{Action: "probe_deploy"}},
	}
	if _, err := env.Repo.Commit("probe", "action", []*rules.Rule{act}, nil); err == nil {
		env.Engine.MetricUpdatedCtx(context.Background(), in.ID)
	}
	row.Features["Orchestration"] = deployed

	return row, nil
}

// Table1 returns the full measured-plus-reported table.
func Table1() ([]Table1Row, error) {
	gallery, err := Table1Probe()
	if err != nil {
		return nil, err
	}
	return append(Table1Reported(), gallery), nil
}

// FormatTable1 renders rows the way the paper prints Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "Systems")
	for _, f := range Table1Features {
		fmt.Fprintf(&b, " %-13s", f)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s", r.System)
		for _, f := range Table1Features {
			v := "N"
			if r.Features[f] {
				v = "Y"
			}
			if r.Measured {
				v += "*"
			}
			fmt.Fprintf(&b, " %-13s", v)
		}
		b.WriteString("\n")
	}
	b.WriteString("(*) measured by end-to-end probe in this reproduction; others as reported in the paper\n")
	return b.String()
}
