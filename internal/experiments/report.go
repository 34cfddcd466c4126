package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/netfpga/sweep"
)

// renderedDef is one experiment's tables, rendered from a sweep run.
type renderedDef struct {
	Def    Def
	Tables []*Table
}

// renderRun renders every experiment cfg names from rs, the results of
// a run of GroupsForConfig(cfg) under any filter. Each Def renders from
// the view of rs limited to its own groups. An experiment renders only
// when every cell of its unfiltered expansion ran and none failed;
// skipped names, with the reason, each experiment the run holds only in
// part or with failures. An experiment the filter excluded entirely is
// in neither list.
func renderRun(cfg *sweep.Config, rs *sweep.Results) (out []renderedDef, skipped []string) {
	lo := 0
	for _, id := range cfg.Experiments {
		d, ok := DefByID(id)
		if !ok {
			continue // GroupsForConfig refused the config before any run
		}
		hi := lo + len(d.Groups)
		view := rs.Groups(lo, hi)
		lo = hi
		cells, _, err := sweep.ExpandGroups(d.Groups, "")
		switch failed := len(view.Failed()); {
		case len(view.Cells) == 0:
		case err != nil || len(view.Cells) < len(cells):
			skipped = append(skipped, fmt.Sprintf("%s (%d of %d cells ran)", d.ID, len(view.Cells), len(cells)))
		case failed > 0:
			skipped = append(skipped, fmt.Sprintf("%s (%d of %d cells failed)", d.ID, failed, len(cells)))
		default:
			out = append(out, renderedDef{Def: d, Tables: d.Render(view)})
		}
	}
	return out, skipped
}

// Report writes a finished run's tables to w — per experiment a
// "==== ID: Title ====" header and a blank line, then each table and a
// blank line — followed by one line naming the experiments whose tables
// were skipped, and the claims scorecard of the rendered ones. A claim
// that does not hold is a scorecard line, never a failed run.
func Report(w io.Writer, cfg *sweep.Config, rs *sweep.Results) {
	rendered, skipped := renderRun(cfg, rs)
	held, total := 0, 0
	var misses []string
	for _, r := range rendered {
		fmt.Fprintf(w, "==== %s: %s ====\n\n", r.Def.ID, r.Def.Title)
		for _, t := range r.Tables {
			fmt.Fprintln(w, t)
		}
		m := r.Def.check(r.Tables)
		total += len(r.Def.Claims)
		held += len(r.Def.Claims) - len(m)
		misses = append(misses, m...)
	}
	if len(skipped) > 0 {
		fmt.Fprintf(w, "tables skipped, an experiment renders only when all its cells ran and none failed: %s\n",
			strings.Join(skipped, ", "))
	}
	if total > 0 {
		fmt.Fprintf(w, "claims: %d/%d reproduced\n", held, total)
		for _, m := range misses {
			fmt.Fprintf(w, "  NOT REPRODUCED %s\n", m)
		}
	}
}
