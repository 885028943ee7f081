package rules_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// Example wires the full Figure 8 workflow: commit the paper's Listing 2
// action rule, register a deployment callback, and watch a metric update
// trigger the deployment.
func Example() {
	clk := clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC))
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(3),
	})
	if err != nil {
		log.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	engine := rules.NewEngine(reg, repo, clk)

	engine.RegisterAction("forecasting_deployment", func(ctx *rules.ActionContext) error {
		fmt.Printf("deploying %s (bias %.2f)\n", ctx.Instance.Name, ctx.Metrics["bias"])
		return nil
	})

	rule := &rules.Rule{
		UUID:    "4365754a-92bb-4421-a1be-00d7d87f77a0",
		Team:    "forecasting",
		Kind:    rules.KindAction,
		Given:   `model_domain == "UberX" && model_name == "Random Forest"`,
		When:    "metrics.bias <= 0.1 && metrics.bias >= -0.1",
		Actions: []rules.ActionRef{{Action: "forecasting_deployment"}},
	}
	if _, err := repo.Commit("forecasting", "listing 2", []*rules.Rule{rule}, nil); err != nil {
		log.Fatal(err)
	}

	m, _ := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "uberx_rf", Name: "Random Forest", Domain: "UberX",
	})
	in, _ := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "rf-v1"}, []byte("blob"))

	if _, err := reg.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.05); err != nil {
		log.Fatal(err)
	}
	engine.MetricUpdatedCtx(context.Background(), in.ID) // the Fig. 8 Client 2 event
	// Output: deploying rf-v1 (bias 0.05)
}
