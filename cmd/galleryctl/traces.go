package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"gallery/internal/client"
	"gallery/internal/obs/trace"
)

// cmdTraces lists the server's sampled traces, or renders one trace's
// span tree with -id. The list reads newest first; pick a trace_id off it
// and re-run with -id to see where the time went.
func cmdTraces(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	id := fs.String("id", "", "fetch one trace by 32-hex trace id and print its span tree")
	limit := fs.Int("limit", 20, "max traces to list")
	raw := fs.Bool("json", false, "print raw JSON instead of the rendered view")
	fs.Parse(args)

	if *id != "" {
		data, err := c.DebugTrace(*id)
		if err != nil {
			return err
		}
		if *raw {
			fmt.Println(string(data))
			return nil
		}
		var d trace.Detail
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("decode trace: %w", err)
		}
		printSummary(d.Summary)
		for _, r := range d.Roots {
			printNode(r, 0)
		}
		return nil
	}

	data, err := c.DebugTraces(*limit)
	if err != nil {
		return err
	}
	if *raw {
		fmt.Println(string(data))
		return nil
	}
	var list struct {
		Stats  trace.Stats     `json:"stats"`
		Traces []trace.Summary `json:"traces"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("decode trace list: %w", err)
	}
	fmt.Printf("%d traces buffered (capacity %d, %d evicted, %d dropped)\n",
		list.Stats.Completed, list.Stats.Capacity, list.Stats.Evicted, list.Stats.Dropped)
	for _, s := range list.Traces {
		errs := ""
		if s.Errors > 0 {
			errs = fmt.Sprintf("  errors=%d", s.Errors)
		}
		fmt.Printf("%s  %8.2fms  %2d spans  [%s]  %s%s\n",
			s.TraceID, s.Duration, s.Spans, strings.Join(s.Services, ","), s.Root, errs)
	}
	return nil
}

func printSummary(s trace.Summary) {
	fmt.Printf("trace %s: %s  %.2fms  %d spans  services=[%s]  errors=%d\n",
		s.TraceID, s.Root, s.Duration, s.Spans, strings.Join(s.Services, ","), s.Errors)
}

// printNode renders one span line, indented by depth:
//
//	serve.predict (galleryserve)  12.40ms self 0.31ms  model=... cache=miss
func printNode(n *trace.Node, depth int) {
	sp := n.Span
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(sp.Name)
	if sp.Service != "" {
		fmt.Fprintf(&b, " (%s)", sp.Service)
	}
	fmt.Fprintf(&b, "  %.2fms self %.2fms", sp.Duration, n.SelfMs)
	for _, a := range sp.Attrs {
		fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
	}
	if sp.Error != "" {
		fmt.Fprintf(&b, "  ERROR: %s", sp.Error)
	}
	fmt.Println(b.String())
	for _, c := range n.Children {
		printNode(c, depth+1)
	}
}
