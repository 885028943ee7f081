package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"gallery/internal/client"
	"gallery/internal/obs/profile"
)

// cmdProfile inspects the continuous profiler's merged fleet view
// (GET /v1/debug/profile): `top` renders the hottest functions per
// process and kind.
func cmdProfile(c *client.Client, args []string) error {
	if len(args) == 0 || args[0] != "top" {
		return fmt.Errorf("usage: profile top ... (see `profile top -h`)")
	}
	return profileTop(c, args[1:])
}

func profileTop(c *client.Client, args []string) error {
	fs := flag.NewFlagSet("profile top", flag.ExitOnError)
	merge := fs.Duration("merge", 0, "fold only windows ending within this duration (0 = all retained)")
	topN := fs.Int("n", profile.DefaultTopN, "top-N functions per summary")
	kind := fs.String("kind", "", "show only this profile kind (cpu|heap|goroutine|mutex|block)")
	proc := fs.String("process", "", "show only this process")
	raw := fs.Bool("json", false, "print raw JSON instead of the rendered view")
	fs.Parse(args)

	v, err := c.DebugProfile(*merge, *topN)
	if err != nil {
		return err
	}
	if *raw {
		return dump(v, nil)
	}
	shown := 0
	for _, pv := range v.Processes {
		if *proc != "" && pv.Process != *proc {
			continue
		}
		kinds := make([]string, 0, len(pv.Merged))
		for k := range pv.Merged {
			if *kind != "" && k != *kind {
				continue
			}
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			printProfileSummary(pv.Process, pv.Windows[k], pv.Merged[k])
			shown++
		}
	}
	if shown == 0 {
		fmt.Println("no profile windows retained yet (is the profiler armed? see -profile-interval)")
	}
	return nil
}

// printProfileSummary renders one merged summary as a table:
//
//	galleryd cpu: 4 windows, total 1.2s over 40.0s
//	  SELF      SELF%   CUM       CUM%    FUNCTION
//	  412.0ms   34.3%   501.2ms   41.8%   gallery/internal/forecast.(*Holt).Fit
func printProfileSummary(process string, windows int, s profile.Summary) {
	span := ""
	if s.DurationNS > 0 {
		span = fmt.Sprintf(" over %s", time.Duration(s.DurationNS).Round(100*time.Millisecond))
	}
	fmt.Printf("%s %s: %d window(s), total %s%s\n",
		process, s.Kind, windows, formatProfileValue(s.Unit, s.Total), span)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  SELF\tSELF%\tCUM\tCUM%\tFUNCTION")
	for _, fn := range s.Top {
		fmt.Fprintf(tw, "  %s\t%.1f%%\t%s\t%.1f%%\t%s\n",
			formatProfileValue(s.Unit, fn.Self), fn.SelfShare*100,
			formatProfileValue(s.Unit, fn.Cum), fn.CumShare*100, fn.Name)
	}
	tw.Flush()
}

// formatProfileValue renders a sample value in its unit: CPU and
// contention profiles count nanoseconds, heap counts bytes, goroutine
// profiles count goroutines.
func formatProfileValue(unit string, v int64) string {
	switch unit {
	case "nanoseconds":
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case "bytes":
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
		}
		return fmt.Sprintf("%dB", v)
	default:
		return fmt.Sprintf("%d", v)
	}
}
