package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// Flags both daemons run with under requestScript: every background loop
// ticks within the script.
var (
	scriptGallerydArgs     = []string{"-mem", "-auth", "-trace-sample", "always", "-health-interval", "50ms", "-slo-interval", "50ms"}
	scriptGalleryserveArgs = []string{"-auth", "-trace-sample", "always", "-refresh", "50ms", "-health-flush", "50ms"}
)

// requestScript is the fixed request sequence behind the metric-family
// golden: requests into every subsystem of both daemons. gd talks to
// galleryd and gw to galleryserve, both as an operator. It stops at the
// first failure.
func requestScript(gd, gw *client.Client) (err error) {
	step := func(what string, e error) bool {
		if err == nil && e != nil {
			err = fmt.Errorf("%s: %w", what, e)
		}
		return err == nil
	}
	m, e := gd.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-golden", Project: "golden", Name: "demand", Domain: "UberX"})
	step("register", e)
	up, e := gd.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-supply", Project: "golden", Name: "supply", Domain: "UberX"})
	step("register upstream", e)
	step("add dependency", gd.AddDependency(m.ID, up.ID))
	blob, e := forecast.Encode(&forecast.Heuristic{K: 1})
	step("encode", e)
	inst, e := gd.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "first", City: "sf", Blob: blob})
	if !step("upload", e) {
		return err
	}
	step("get instance", second(gd.GetInstance(inst.ID)))
	step("fetch blob", second(gd.FetchBlob(inst.ID)))
	step("insert metric", second(gd.InsertMetric(inst.ID, "mape", "production", 0.1)))
	step("insert metricset", gd.InsertMetrics(inst.ID, "validation", map[string]float64{"mape": 0.2, "bias": 0.1}))
	step("insert metricsblob", gd.InsertMetricsBlob(inst.ID, "production", []byte("mape:0.3\n")))
	step("search", second(gd.Search(api.SearchRequest{Constraints: []api.SearchConstraint{{Field: "city", Operator: "equal", Value: "sf"}}})))
	step("lineage", second(gd.Lineage("bv-golden")))
	step("versions", second(gd.VersionHistory(m.ID)))
	step("drift", second(gd.CheckDrift(inst.ID, api.DriftRequest{Metric: "mape"})))
	step("skew", second(gd.CheckSkew(inst.ID, api.SkewRequest{Metric: "mape"})))
	step("fleet health", second(gd.CheckFleetHealth(api.FleetHealthRequest{Project: "golden", Metric: "mape"})))
	rule := json.RawMessage(`{"uuid":"golden-rule","team":"golden","kind":"action","when":"metrics.bias > 0.5",` +
		`"callback_actions":[{"action":"alert","params":{"message":"bias"}}]}`)
	step("commit rules", second(gd.CommitRules("golden", "alert on bias", []json.RawMessage{rule}, nil)))
	step("insert bias", second(gd.InsertMetric(inst.ID, "bias", "production", 0.9)))
	step("create slo", second(gd.CreateSLO(api.CreateSLORequest{Namespace: "default", Kind: "availability", Target: 0.99})))
	for range 3 {
		step("predict", second(gw.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})))
	}
	// The model's first health transition needs the monitor to see this
	// instance, whose metrics give the drift check a verdict, before the
	// swap below replaces it with one that has none.
	step("health transition", waitFor(func() bool {
		evs, err := gd.AuditEvents(client.AuditQuery{Action: audit.ActionHealthTransition, Limit: 1})
		return err == nil && len(evs) > 0
	}))
	if _, e := gw.Predict(up.ID, api.PredictRequest{History: []float64{10, 20}}); e == nil {
		step("predict without an instance", fmt.Errorf("succeeded"))
	}
	// A second upload is promoted; the gateway's next refresh swaps to it
	// and reports the swap back over its telemetry shipper.
	next, e := gd.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "second", City: "sf", Blob: blob})
	step("second upload", e)
	step("hot swap", waitFor(func() bool {
		st, err := gw.ServingStatus()
		return err == nil && len(st) == 1 && st[0].InstanceID == next.ID
	}))
	step("predict after swap", second(gw.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})))
	step("incident", second(gd.TriggerIncident(api.TriggerIncidentRequest{Reason: "golden"})))
	step("audit", second(gd.AuditEvents(client.AuditQuery{Limit: 10})))
	step("namespaces", second(gd.Namespaces()))
	step("alerts", second(gd.Alerts()))
	for _, c := range []*client.Client{gd, gw} {
		step("logs", second(c.DebugLogs(client.LogsQuery{})))
		step("traces", second(c.DebugTraces(10)))
		step("metrics", second(c.DebugMetrics()))
	}
	// Let the health flush, the monitor and the SLO evaluator tick over
	// what the script did.
	time.Sleep(300 * time.Millisecond)
	step("slo status", second(gd.SLOStatus()))
	step("model health", second(gd.ListModelHealth()))
	return err
}

// second drops a call's result, keeping its error.
func second[T any](_ T, err error) error { return err }

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return nil
		}
	}
	return fmt.Errorf("condition not met within 5s")
}

var (
	uuidRE      = regexp.MustCompile(`[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}`)
	buildInfoRE = regexp.MustCompile(`gallery_build_info\{version="[^"]*",go_version="[^"]*"\}`)
	leRE        = regexp.MustCompile(`,?le="[^"]*"\}`)
)

// metricSeries lists every series a daemon shows, without values: one
// "<kind> <key>" entry per JSON snapshot key and one "prom <series>" entry
// per exposition sample line, with a histogram's bucket lines folded into
// one (le dropped). Generated IDs and the build identity are replaced by
// placeholders, so the list is the same on every run and every machine.
func metricSeries(snapJSON, prom []byte) ([]string, error) {
	var snap obs.Snapshot
	if err := json.Unmarshal(snapJSON, &snap); err != nil {
		return nil, err
	}
	var out []string
	for k := range snap.Counters {
		out = append(out, "counter "+k)
	}
	for k := range snap.Gauges {
		out = append(out, "gauge "+k)
	}
	for k := range snap.Histograms {
		out = append(out, "histogram "+k)
	}
	for _, line := range strings.Split(string(prom), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if strings.Contains(series, "_bucket") {
			series = strings.TrimSuffix(leRE.ReplaceAllString(series, "}"), "{}")
		}
		out = append(out, "prom "+series)
	}
	for i, s := range out {
		s = buildInfoRE.ReplaceAllString(s, `gallery_build_info{version="<version>",go_version="<go>"}`)
		out[i] = uuidRE.ReplaceAllString(s, "<id>")
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// promFamilies lists the metric families of a Prometheus text exposition,
// sorted, one "name type" entry per family.
func promFamilies(text []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}
