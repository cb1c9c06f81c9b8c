package mosaic

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The paper's claims, checked on the committed result tables. The
// scaled-down tests check the code at a size that runs in seconds; these
// read results/*.txt, so a regenerated table that loses one of the
// paper's shapes fails here as well as in scripts/regen.sh.

// resultTable is one titled text table of a results file: a title line, a
// header, a dashed rule and rows whose columns are separated by two or
// more spaces.
type resultTable struct {
	title  string
	header []string
	rows   [][]string
}

var columnSep = regexp.MustCompile(`\s{2,}`)

func splitColumns(line string) []string {
	return columnSep.Split(strings.TrimSpace(line), -1)
}

// readTables parses every table of results/<name>.
func readTables(t *testing.T, name string) []resultTable {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("results", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var out []resultTable
	for i := 0; i+2 < len(lines); i++ {
		if !strings.HasPrefix(lines[i+2], "---") {
			continue
		}
		tb := resultTable{title: lines[i], header: splitColumns(lines[i+1])}
		for _, l := range lines[i+3:] {
			if strings.TrimSpace(l) == "" {
				break
			}
			tb.rows = append(tb.rows, splitColumns(l))
		}
		out = append(out, tb)
		i += 2 + len(tb.rows)
	}
	if len(out) == 0 {
		t.Fatalf("results/%s holds no table", name)
	}
	return out
}

// table returns the table of results/<name> whose title starts with
// prefix.
func table(t *testing.T, name, prefix string) resultTable {
	t.Helper()
	for _, tb := range readTables(t, name) {
		if strings.HasPrefix(tb.title, prefix) {
			return tb
		}
	}
	t.Fatalf("results/%s has no table titled %q…", name, prefix)
	return resultTable{}
}

// col is the index of the header column with the given name.
func (tb resultTable) col(t *testing.T, name string) int {
	t.Helper()
	for i, h := range tb.header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%q has no column %q (header %q)", tb.title, name, tb.header)
	return 0
}

// num parses a cell's leading number: "+9.41", "98.08% ±0.44", "8157".
func num(t *testing.T, cell string) float64 {
	t.Helper()
	f := strings.TrimSuffix(strings.Fields(cell)[0], "%")
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// byWorkload groups rows by their first column, keeping row order.
func (tb resultTable) byWorkload() (names []string, rows map[string][][]string) {
	rows = make(map[string][][]string)
	for _, r := range tb.rows {
		if _, ok := rows[r[0]]; !ok {
			names = append(names, r[0])
		}
		rows[r[0]] = append(rows[r[0]], r)
	}
	return names, rows
}

// TestClaimTable4SwapsLessPastTheEdge: Table 4's parts (2) and (3). Past
// the edge of memory mosaic swaps less on every workload — once the
// difference turns positive it stays positive — and its advantage peaks at
// small oversubscription (at most 1.25× the pool), then shrinks row by row
// as capacity misses dominate.
func TestClaimTable4SwapsLessPastTheEdge(t *testing.T) {
	tb := table(t, "table4.txt", "Table 4")
	m := regexp.MustCompile(`\((\d+) MiB pool`).FindStringSubmatch(tb.title)
	if m == nil {
		t.Fatalf("no pool size in %q", tb.title)
	}
	pool, _ := strconv.ParseFloat(m[1], 64)
	fp, diff := tb.col(t, "Footprint (MiB)"), tb.col(t, "Difference (%)")
	names, rows := tb.byWorkload()
	if len(names) != 3 {
		t.Fatalf("workloads %q, want graph500, xsbench, btree", names)
	}
	for _, w := range names {
		var past []float64 // differences from the first positive one on
		peak, peakFP := 0.0, 0.0
		for _, r := range rows[w] {
			d := num(t, r[diff])
			if len(past) == 0 && d <= 0 {
				continue // the edge, where mosaic swaps more
			}
			if d <= 0 {
				t.Errorf("%s at %s MiB: mosaic swaps more (%+.2f%%) past the edge", w, r[fp], d)
			}
			if d > peak {
				peak, peakFP = d, num(t, r[fp])
			}
			past = append(past, d)
		}
		if len(past) < 3 {
			t.Fatalf("%s: %d footprints past the edge, want at least 3", w, len(past))
		}
		if peakFP > 1.25*pool {
			t.Errorf("%s: advantage peaks at %.0f MiB, above 1.25× the %.0f MiB pool", w, peakFP, pool)
		}
		shrinking := false
		for i, d := range past {
			if d == peak {
				shrinking = true
				continue
			}
			if shrinking && d > past[i-1] {
				t.Errorf("%s: advantage grows again after its peak (%+.2f%% → %+.2f%%)", w, past[i-1], d)
			}
		}
		if last := past[len(past)-1]; last >= peak {
			t.Errorf("%s: advantage at the largest footprint %+.2f%% has not shrunk from its peak %+.2f%%", w, last, peak)
		}
	}
}

// TestClaimFigure6Graph500HighArityIgnoresAssociativity: on graph500,
// Mosaic-32 and Mosaic-64 miss exactly as often direct-mapped as fully
// associative.
func TestClaimFigure6Graph500HighArityIgnoresAssociativity(t *testing.T) {
	tb := table(t, "fig6.txt", "Figure 6 (graph500)")
	assoc := []string{"Direct misses", "2-Way misses", "4-Way misses", "8-Way misses", "Full misses"}
	found := 0
	for _, r := range tb.rows {
		if r[0] != "Mosaic-32" && r[0] != "Mosaic-64" {
			continue
		}
		found++
		direct := r[tb.col(t, assoc[0])]
		for _, c := range assoc[1:] {
			if got := r[tb.col(t, c)]; got != direct {
				t.Errorf("%s: %s %s, direct-mapped %s", r[0], c, got, direct)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the Mosaic-32 and Mosaic-64 rows", found)
	}
}

// TestClaimTable3ConflictsClusterAt98: first conflicts cluster at about
// 98% for every workload and footprint, about 1% below where the Linux
// baseline starts swapping; the steady state sits above the first conflict
// and rises with the footprint.
func TestClaimTable3ConflictsClusterAt98(t *testing.T) {
	tb := table(t, "table3.txt", "Table 3")
	first, steady := tb.col(t, "First conflict (1-δ)"), tb.col(t, "Steady-state utilization")
	names, rows := tb.byWorkload()
	if len(names) != 3 {
		t.Fatalf("workloads %q, want graph500, xsbench, btree", names)
	}
	sum, n := 0.0, 0
	for _, w := range names {
		prev := 0.0
		for _, r := range rows[w] {
			fc, ss := num(t, r[first]), num(t, r[steady])
			if fc < 97.5 || fc > 98.5 {
				t.Errorf("%s at %s MiB: first conflict %.2f%%, outside 98±0.5%%", w, r[1], fc)
			}
			if ss <= fc {
				t.Errorf("%s at %s MiB: steady state %.2f%% not above the first conflict %.2f%%", w, r[1], ss, fc)
			}
			if ss <= prev {
				t.Errorf("%s at %s MiB: steady state %.2f%% does not rise from %.2f%%", w, r[1], ss, prev)
			}
			prev = ss
			sum += fc
			n++
		}
	}
	data, err := os.ReadFile(filepath.Join("results", "table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`begins swapping at ([0-9.]+)% utilization`).FindSubmatch(data)
	if m == nil {
		t.Fatal("table3.txt states no Linux swap onset")
	}
	linux, _ := strconv.ParseFloat(string(m[1]), 64)
	if gap := linux - sum/float64(n); gap <= 0 || gap > 2 {
		t.Errorf("Linux swaps at %.2f%%, %.2f points above mosaic's mean first conflict, want (0, 2]", linux, gap)
	}
}

// TestClaimAblationKneeAndSplit: the backyard-choice curve rises with d
// and reaches its knee at the paper's d=6, the smallest d within half a
// point of d=8; and f=56/b=8 is the best split that keeps 7-bit CPFNs,
// every better one needing more bits.
func TestClaimAblationKneeAndSplit(t *testing.T) {
	choices := table(t, "ablate.txt", "Ablation: backyard choices d")
	fc := choices.col(t, "First conflict (1-δ)")
	last := num(t, choices.rows[len(choices.rows)-1][fc])
	knee, prev := "", 0.0
	for _, r := range choices.rows {
		v := num(t, r[fc])
		if v <= prev {
			t.Errorf("%s: first conflict %.2f%% does not rise from %.2f%%", r[0], v, prev)
		}
		prev = v
		if knee == "" && last-v < 0.5 {
			knee = r[0]
		}
	}
	if knee != "d=6" {
		t.Errorf("knee at %q, want d=6", knee)
	}

	split := table(t, "ablate.txt", "Ablation: frontyard/backyard split")
	fc, bits := split.col(t, "First conflict (1-δ)"), split.col(t, "CPFN bits")
	best, bestV := "", 0.0
	for _, r := range split.rows {
		if r[bits] == "7" && num(t, r[fc]) > bestV {
			best, bestV = r[0], num(t, r[fc])
		}
	}
	if best != "f=56/b=8" {
		t.Errorf("best 7-bit split %q, want f=56/b=8", best)
	}
	for _, r := range split.rows {
		if num(t, r[fc]) > bestV && num(t, r[bits]) <= 7 {
			t.Errorf("%s beats f=56/b=8 with %s-bit CPFNs", r[0], r[bits])
		}
	}
}
