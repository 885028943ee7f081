// Command galleryctl is the command-line client for a running galleryd,
// covering the everyday Gallery workflow of paper §4.1: registering
// models, uploading trained instances, recording metrics, searching, and
// managing rules.
//
// Usage:
//
//	galleryctl -server http://localhost:8440 <subcommand> [args]
//
// Subcommands:
//
//	register  -base ID [-project P -name N -domain D -owner O]
//	upload    -model UUID -blob FILE [-name N -city C -framework F]
//	get-model UUID
//	get       UUID
//	blob      [-out FILE] UUID
//	metric    -instance UUID -name N -scope S -value V
//	search    [-project P -name N -city C -metric N -op OP -value V]
//	lineage   BASE_VERSION_ID
//	versions  MODEL_UUID
//	deps      -add|-rm -from UUID -to UUID
//	promote   VERSION_UUID
//	deprecate -model UUID | -instance UUID
//	rules     [-commit FILE... | -list]
//	select    -rule UUID
//	drift     -instance UUID -metric N
//	health    [-project P [-metric N]] | [-model UUID] [-json] [-watch [-every D]]
//	stats
//	metrics   [-prom]
//	slo       create|list|delete|status ... (see `slo -h`)
//	incident  list|get|trigger ... (see `incident -h`)
//	traces    [-limit N | -id TRACE_ID] [-json]
//	audit     [-entity UUID | -model UUID] [-action A] [-actor A] [-trace ID]
//	          [-since D] [-until D] [-where f:op:v]... [-limit N] [-asc] [-json]
//	logs      [-level L] [-since D] [-limit N] [-follow [-every D]] [-json]
//	predict   -model UUID -history "10,12,11,13" [-gateway URL]
//	tenant    create|list|quotas|mint|tokens|revoke ... (see `tenant -h`)
//
// Against a galleryd running -auth, pass -token (or set GALLERY_TOKEN).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
)

func main() {
	serverFlag := flag.String("server", "http://localhost:8440", "gallery server URL")
	actorFlag := flag.String("actor", "galleryctl", "actor name recorded in the audit trail for mutations")
	tokenFlag := flag.String("token", os.Getenv("GALLERY_TOKEN"), "bearer token for servers running -auth (default $GALLERY_TOKEN)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("usage: galleryctl [-server URL] <subcommand> [args]; see -h")
	}
	c := client.NewWith(*serverFlag, client.Options{Actor: *actorFlag, Token: *tokenFlag})
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "register":
		err = cmdRegister(c, rest)
	case "upload":
		err = cmdUpload(c, rest)
	case "get-model":
		err = one(rest, func(id string) error { return dump(c.GetModel(id)) })
	case "get":
		err = one(rest, func(id string) error { return dump(c.GetInstance(id)) })
	case "blob":
		err = cmdBlob(c, rest)
	case "metric":
		err = cmdMetric(c, rest)
	case "search":
		err = cmdSearch(c, rest)
	case "lineage":
		err = one(rest, func(base string) error { return dump(c.Lineage(base)) })
	case "versions":
		err = one(rest, func(id string) error { return dump(c.VersionHistory(id)) })
	case "deps":
		err = cmdDeps(c, rest)
	case "promote":
		err = one(rest, func(id string) error { return c.Promote(id) })
	case "deprecate":
		err = cmdDeprecate(c, rest)
	case "rules":
		err = cmdRules(c, rest)
	case "select":
		err = cmdSelect(c, rest)
	case "drift":
		err = cmdDrift(c, rest)
	case "health":
		err = cmdHealth(c, rest)
	case "stats":
		err = dump(c.Stats())
	case "metrics":
		err = cmdMetrics(c, rest)
	case "slo":
		err = cmdSLO(c, rest)
	case "incident":
		err = cmdIncident(c, rest)
	case "traces":
		err = cmdTraces(c, rest)
	case "audit":
		err = cmdAudit(c, rest)
	case "logs":
		err = cmdLogs(c, rest)
	case "predict":
		err = cmdPredict(c, *serverFlag, rest)
	case "tenant":
		err = cmdTenant(c, rest)
	default:
		fail("galleryctl: unknown subcommand %q", cmd)
	}
	if err != nil {
		fail("galleryctl: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// dump prints any (value, error) pair as indented JSON.
func dump[T any](v T, err error) error {
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func one(args []string, f func(string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one argument")
	}
	return f(args[0])
}

func cmdRegister(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	base := fs.String("base", "", "base version id (required)")
	project := fs.String("project", "", "project")
	name := fs.String("name", "", "model name")
	domain := fs.String("domain", "", "model domain")
	owner := fs.String("owner", "", "owner")
	major := fs.Int("major", 0, "initial major version")
	fs.Parse(args)
	return dump(c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: *base, Project: *project, Name: *name,
		Domain: *domain, Owner: *owner, InitialMajor: *major,
	}))
}

func cmdUpload(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("upload", flag.ExitOnError)
	model := fs.String("model", "", "model UUID (required)")
	blobPath := fs.String("blob", "", "file with serialized model (required)")
	name := fs.String("name", "", "instance name")
	city := fs.String("city", "", "city")
	framework := fs.String("framework", "", "framework")
	training := fs.String("training-data", "", "training data pointer")
	fs.Parse(args)
	blob, err := os.ReadFile(*blobPath)
	if err != nil {
		return err
	}
	return dump(c.UploadInstance(api.UploadInstanceRequest{
		ModelID: *model, Name: *name, City: *city, Framework: *framework,
		TrainingData: *training, Blob: blob,
	}))
}

func cmdBlob(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("blob", flag.ExitOnError)
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("blob needs an instance UUID")
	}
	data, err := c.FetchBlob(fs.Arg(0))
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func cmdMetric(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("metric", flag.ExitOnError)
	instance := fs.String("instance", "", "instance UUID (required)")
	name := fs.String("name", "", "metric name (required)")
	scope := fs.String("scope", "validation", "scope: training|validation|production")
	value := fs.Float64("value", 0, "metric value")
	fs.Parse(args)
	return dump(c.InsertMetric(*instance, *name, *scope, *value))
}

func cmdSearch(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	project := fs.String("project", "", "project equality filter")
	name := fs.String("name", "", "model name equality filter")
	city := fs.String("city", "", "city equality filter")
	metric := fs.String("metric", "", "metric name")
	op := fs.String("op", "smaller_than", "metric operator")
	value := fs.Float64("value", 0, "metric threshold")
	limit := fs.Int("limit", 0, "max results")
	fs.Parse(args)
	var cs []api.SearchConstraint
	add := func(field, val string) {
		if val != "" {
			cs = append(cs, api.SearchConstraint{Field: field, Operator: "equal", Value: val})
		}
	}
	add("projectName", *project)
	add("modelName", *name)
	add("city", *city)
	if *metric != "" {
		cs = append(cs,
			api.SearchConstraint{Field: "metricName", Operator: "equal", Value: *metric},
			api.SearchConstraint{Field: "metricValue", Operator: *op, Number: *value})
	}
	return dump(c.Search(api.SearchRequest{Constraints: cs, Limit: *limit}))
}

func cmdDeps(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("deps", flag.ExitOnError)
	add := fs.Bool("add", false, "add a dependency")
	rm := fs.Bool("rm", false, "remove a dependency")
	from := fs.String("from", "", "downstream model UUID")
	to := fs.String("to", "", "upstream model UUID")
	fs.Parse(args)
	switch {
	case *add:
		return c.AddDependency(*from, *to)
	case *rm:
		return c.RemoveDependency(*from, *to)
	default:
		return fmt.Errorf("deps needs -add or -rm")
	}
}

func cmdDeprecate(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("deprecate", flag.ExitOnError)
	model := fs.String("model", "", "model UUID")
	instance := fs.String("instance", "", "instance UUID")
	fs.Parse(args)
	switch {
	case *model != "":
		return c.DeprecateModel(*model)
	case *instance != "":
		return c.DeprecateInstance(*instance)
	default:
		return fmt.Errorf("deprecate needs -model or -instance")
	}
}

func cmdRules(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	author := fs.String("author", os.Getenv("USER"), "commit author")
	message := fs.String("message", "galleryctl commit", "commit message")
	fs.Parse(args)
	if fs.NArg() == 0 {
		raw, err := c.ListRules()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	var upserts []json.RawMessage
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		upserts = append(upserts, json.RawMessage(data))
	}
	hash, err := c.CommitRules(*author, *message, upserts, nil)
	if err != nil {
		return err
	}
	fmt.Println("committed", hash)
	return nil
}

func cmdSelect(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	rule := fs.String("rule", "", "selection rule UUID (required)")
	city := fs.String("city", "", "candidate city filter")
	project := fs.String("project", "", "candidate project filter")
	fs.Parse(args)
	var cs []api.SearchConstraint
	if *city != "" {
		cs = append(cs, api.SearchConstraint{Field: "city", Operator: "equal", Value: *city})
	}
	if *project != "" {
		cs = append(cs, api.SearchConstraint{Field: "projectName", Operator: "equal", Value: *project})
	}
	return dump(c.SelectModel(*rule, api.SearchRequest{Constraints: cs}))
}

// cmdHealth has two modes. With -project it runs the on-demand fleet
// sweep (drift/skew checks over stored metrics). Without it, it reads the
// continuous health monitor's live verdicts from /v1/health/models —
// optionally one model, as JSON, or repainted on an interval with -watch.
func cmdHealth(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	project := fs.String("project", "", "fleet mode: project to sweep with on-demand checks")
	metric := fs.String("metric", "mape", "fleet mode: error metric for drift/skew checks")
	limit := fs.Int("limit", 0, "fleet mode: max instances to sweep")
	model := fs.String("model", "", "live mode: show one model's verdict")
	jsonOut := fs.Bool("json", false, "live mode: print raw JSON instead of the table")
	watch := fs.Bool("watch", false, "live mode: repaint every -every until interrupted")
	every := fs.Duration("every", 5*time.Second, "poll period for -watch")
	fs.Parse(args)
	if *project != "" {
		return dump(c.CheckFleetHealth(api.FleetHealthRequest{
			Project: *project, Metric: *metric, Limit: *limit,
		}))
	}
	show := func() error {
		var list []api.ModelHealth
		if *model != "" {
			mh, err := c.ModelHealth(*model)
			if err != nil {
				return err
			}
			list = []api.ModelHealth{mh}
		} else {
			var err error
			if list, err = c.ListModelHealth(); err != nil {
				return err
			}
		}
		if *jsonOut {
			return dump(list, nil)
		}
		printModelHealth(list)
		return nil
	}
	if !*watch {
		return show()
	}
	for {
		fmt.Printf("--- %s ---\n", time.Now().Format(time.RFC3339))
		if err := show(); err != nil {
			return err
		}
		time.Sleep(*every)
	}
}

func printModelHealth(list []api.ModelHealth) {
	if len(list) == 0 {
		fmt.Println("no models under health monitoring")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "MODEL\tSTATUS\tPSI\tREQS\tSTALE\tP95_MS\tLAST_SEEN\tREASONS")
	for _, mh := range list {
		last := ""
		if !mh.LastSeen.IsZero() {
			last = mh.LastSeen.UTC().Format("2006-01-02T15:04:05Z")
		}
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%d\t%d\t%.1f\t%s\t%s\n",
			mh.ModelID, mh.Status, mh.PSI, mh.Requests, mh.StaleServes,
			mh.LatencyP95MS, last, strings.Join(mh.Reasons, "; "))
	}
	w.Flush()
}

// cmdMetrics dumps the server's full metric registry snapshot — the same
// JSON served at /v1/debug/metrics, for when the stats summary is not
// enough. With -prom it prints the Prometheus text exposition instead,
// exactly as a scraper would see it.
func cmdMetrics(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	prom := fs.Bool("prom", false, "print Prometheus text exposition (0.0.4) instead of JSON")
	fs.Parse(args)
	if *prom {
		payload, err := c.DebugMetricsProm()
		if err != nil {
			return err
		}
		os.Stdout.Write(payload)
		return nil
	}
	raw, err := c.DebugMetrics()
	if err != nil {
		return err
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		fmt.Println(string(raw)) // not JSON? print as-is
		return nil
	}
	return dump(v, nil)
}

// cmdSLO manages burn-rate objectives on the daemon's SLO evaluator.
func cmdSLO(c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: galleryctl slo create|list|delete|status [args]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "create":
		fs := flag.NewFlagSet("slo create", flag.ExitOnError)
		ns := fs.String("namespace", "default", "tenant namespace the objective covers")
		kind := fs.String("kind", "availability", "objective kind: availability | latency")
		target := fs.Float64("target", 0.999, "success-ratio target, e.g. 0.999")
		threshold := fs.Float64("threshold-ms", 0, "latency kind: threshold in milliseconds")
		fs.Parse(rest)
		return dump(c.CreateSLO(api.CreateSLORequest{
			Namespace: *ns, Kind: *kind,
			Target: *target, LatencyThresholdMS: *threshold,
		}))
	case "list":
		objs, err := c.ListSLOs()
		if err != nil {
			return err
		}
		return dump(objs, nil)
	case "delete":
		if len(rest) != 1 {
			return fmt.Errorf("usage: galleryctl slo delete ID")
		}
		return c.DeleteSLO(rest[0])
	case "status":
		fs := flag.NewFlagSet("slo status", flag.ExitOnError)
		jsonOut := fs.Bool("json", false, "print raw JSON instead of the table")
		watch := fs.Bool("watch", false, "repaint every -every until interrupted")
		every := fs.Duration("every", 5*time.Second, "poll period for -watch")
		fs.Parse(rest)
		show := func() error {
			sts, err := c.SLOStatus()
			if err != nil {
				return err
			}
			if *jsonOut {
				return dump(sts, nil)
			}
			printSLOStatus(sts)
			return nil
		}
		if !*watch {
			return show()
		}
		for {
			fmt.Printf("--- %s ---\n", time.Now().Format(time.RFC3339))
			if err := show(); err != nil {
				return err
			}
			time.Sleep(*every)
		}
	default:
		return fmt.Errorf("unknown slo subcommand %q (want create|list|delete|status)", sub)
	}
}

// cmdIncident drives the flight recorder: list persisted bundles, fetch
// one in full, or trigger a manual capture.
func cmdIncident(c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: galleryctl incident list|get|trigger [args]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		fs := flag.NewFlagSet("incident list", flag.ExitOnError)
		jsonOut := fs.Bool("json", false, "print raw JSON instead of the table")
		fs.Parse(rest)
		incs, err := c.ListIncidents()
		if err != nil {
			return err
		}
		if *jsonOut {
			return dump(incs, nil)
		}
		printIncidents(incs)
		return nil
	case "get":
		if len(rest) != 1 {
			return fmt.Errorf("usage: galleryctl incident get ID")
		}
		return dump(c.GetIncident(rest[0]))
	case "trigger":
		fs := flag.NewFlagSet("incident trigger", flag.ExitOnError)
		ns := fs.String("namespace", "", "namespace the capture is attributed to")
		model := fs.String("model", "", "model the capture is about (sets the debounce scope)")
		reason := fs.String("reason", "", "free-form note recorded on the bundle")
		fs.Parse(rest)
		return dump(c.TriggerIncident(api.TriggerIncidentRequest{
			Namespace: *ns, ModelID: *model, Reason: *reason,
		}))
	default:
		return fmt.Errorf("unknown incident subcommand %q (want list|get|trigger)", sub)
	}
}

func printIncidents(incs []api.Incident) {
	if len(incs) == 0 {
		fmt.Println("no incidents captured")
		return
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tTRIGGER\tSCOPE\tCREATED\tSIZE\tPARTIAL\tREASON")
	for _, in := range incs {
		partial := ""
		if in.Partial {
			partial = "partial"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\t%s\n",
			in.ID, in.Trigger, in.Scope, in.Created.Format(time.RFC3339), in.Size, partial, in.Reason)
	}
	tw.Flush()
}

func printSLOStatus(sts []api.SLOStatus) {
	if len(sts) == 0 {
		fmt.Println("no SLO objectives configured")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tSCOPE\tKIND\tTARGET\tBURN_FAST\tBURN_SLOW\tBUDGET\tSTATE")
	for _, st := range sts {
		scope := st.SLO.Namespace
		if st.SLO.ModelID != "" {
			scope += "/" + st.SLO.ModelID
		}
		state := "ok"
		switch {
		case st.NoData:
			state = "no-data"
		case st.Breached:
			state = "BREACHED(" + st.Severity + ")"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%.2f\t%.2f\t%.3f\t%s\n",
			st.SLO.ID, scope, st.SLO.Kind, st.SLO.Target,
			st.BurnFast, st.BurnSlow, st.BudgetRemaining, state)
	}
	w.Flush()
}

// cmdPredict asks a serving gateway for a forecast. By default it targets
// the -server URL (useful when galleryctl points straight at a gateway);
// -gateway overrides, so one invocation can talk metadata to galleryd and
// predictions to galleryserve.
func cmdPredict(c *client.Client, serverURL string, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "", "model UUID (required)")
	history := fs.String("history", "", "comma-separated recent observations (required)")
	event := fs.Bool("event", false, "the step being predicted falls in an event window")
	gateway := fs.String("gateway", "", "serving gateway URL (default: the -server URL)")
	fs.Parse(args)
	if *model == "" || *history == "" {
		return fmt.Errorf("predict needs -model and -history")
	}
	var hist []float64
	for _, s := range strings.Split(*history, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad history value %q: %w", s, err)
		}
		hist = append(hist, f)
	}
	gc := c
	if *gateway != "" && *gateway != serverURL {
		gc = client.New(*gateway, nil)
	}
	return dump(gc.Predict(*model, api.PredictRequest{History: hist, Event: *event}))
}

func cmdDrift(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	instance := fs.String("instance", "", "instance UUID (required)")
	metric := fs.String("metric", "mape", "metric to check")
	fs.Parse(args)
	return dump(c.CheckDrift(*instance, api.DriftRequest{Metric: *metric}))
}
