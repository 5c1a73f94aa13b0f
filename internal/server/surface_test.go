package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hydra/internal/core"
	"hydra/internal/hist"
)

// filled is one numeric (or histogram) field populate set, found by
// walking the types independently of the metric plan.
type filled struct {
	path   []string // json keys and slice indexes from the root
	value  uint64
	hist   bool // value is the histogram's count
	json   bool // reachable through json tags
	metric bool // no enclosing metric:"-"
	scalar bool // not inside a slice of structs or a map: WriteGroups prints it
}

// populate sets every numeric field under v to a distinct non-zero
// value (slices get two elements, maps one key, histograms a distinct
// count) and records what it set.
func populate(v reflect.Value, at filled, next *uint64, out *[]filled) {
	switch {
	case v.Type() == histType:
		*next += 7
		var counts [hist.NumBuckets]uint64
		counts[12] = *next
		v.Set(reflect.ValueOf(histJSON(hist.FromRaw(&counts, *next*5000, 8000))))
		at.value, at.hist = *next, true
		*out = append(*out, at)
	case numeric(v.Kind()):
		*next += 7
		at.value = *next
		v.Set(reflect.ValueOf(*next).Convert(v.Type()))
		*out = append(*out, at)
	case v.Kind() == reflect.String:
		*next += 7
		v.SetString(fmt.Sprintf("s%d", *next))
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			e := at
			e.path = append(at.path[:len(at.path):len(at.path)], strconv.Itoa(i))
			e.scalar = at.scalar && numeric(v.Type().Elem().Kind())
			populate(v.Index(i), e, next, out)
		}
	case v.Kind() == reflect.Map:
		*next += 7
		key := fmt.Sprintf("k%d", *next)
		e := at
		e.path = append(at.path[:len(at.path):len(at.path)], key)
		e.scalar = false
		elem := reflect.New(v.Type().Elem()).Elem()
		populate(elem, e, next, out)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf(key), elem)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			e := at
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous:
			case name == "-":
				e.json = false
			default:
				e.path = append(at.path[:len(at.path):len(at.path)], name)
			}
			if f.Tag.Get("metric") == "-" {
				e.metric = false
			}
			populate(v.Field(i), e, next, out)
		}
	}
}

func populated(t *testing.T) (*StatsJSON, []filled) {
	t.Helper()
	var st StatsJSON
	var set []filled
	next := uint64(1000003)
	populate(reflect.ValueOf(&st).Elem(), filled{json: true, metric: true, scalar: true}, &next, &set)
	if len(set) < 90 {
		t.Fatalf("populate found only %d leaves", len(set))
	}
	return &st, set
}

func lookup(v any, path []string) any {
	for _, k := range path {
		switch x := v.(type) {
		case map[string]any:
			v = x[k]
		case []any:
			i, _ := strconv.Atoi(k)
			v = x[i]
		default:
			return nil
		}
	}
	return v
}

// TestEverySurfaceCarriesEveryLeaf is the surface contract in one
// table: each numeric or histogram field of the snapshot, set to a
// value nothing else has, must come out of /stats (and so STATS FULL,
// the same encoding), /metrics and the text the commands print.
func TestEverySurfaceCarriesEveryLeaf(t *testing.T) {
	st, set := populated(t)

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	var prom bytes.Buffer
	writeMetrics(&prom, st)
	checkExposition(t, prom.String())
	samples := map[string]string{} // value -> sample name
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			types[f[2]]++
		} else {
			samples[f[len(f)-1]] = f[0]
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}

	var text bytes.Buffer
	WriteGroups(&text, st, nil, 0)

	for _, f := range set {
		key := strings.Join(f.path, ".")
		val := strconv.FormatUint(f.value, 10)
		if f.json {
			path := f.path
			if f.hist {
				path = append(path[:len(path):len(path)], "count")
			}
			if got, _ := lookup(doc, path).(json.Number); got.String() != val {
				t.Errorf("/stats %s = %q, want %s", key, got, val)
			}
		}
		if f.metric {
			want := val
			if !f.hist && strings.HasSuffix(key, "_ns") {
				want = strconv.FormatFloat(float64(f.value)/1e9, 'g', -1, 64)
			}
			name, ok := samples[want]
			if !ok {
				t.Errorf("/metrics has no sample for %s (value %s)", key, want)
			} else if f.hist != strings.Contains(name, "_seconds_count") {
				t.Errorf("/metrics renders %s as %s", key, name)
			}
		}
		if f.metric && f.scalar && f.json {
			want := f.path[len(f.path)-1] + "=" + val
			if f.hist {
				want = f.path[len(f.path)-1] + ": " + lookup(doc, append(f.path[:len(f.path):len(f.path)], "summary")).(string)
			} else if _, err := strconv.Atoi(f.path[len(f.path)-1]); err == nil {
				want = val // an element of a printed list
			}
			if !strings.Contains(text.String(), want) {
				t.Errorf("WriteGroups output lacks %q", want)
			}
		}
	}

	// With a previous frame every counter carries a rate.
	text.Reset()
	var zero StatsJSON
	WriteGroups(&text, st, &zero, time.Second)
	if n := strings.Count(text.String(), "/s)"); n < 60 {
		t.Errorf("WriteGroups with a previous frame printed %d rates", n)
	}
}

// promFamilies lists the exposition's families as "name type labelkeys".
func promFamilies(body string) []string {
	kind := map[string]string{}
	labels := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			p := strings.Fields(line)
			kind[p[2]] = p[3]
			order = append(order, p[2])
			continue
		}
		name := line[:strings.LastIndexByte(line, ' ')]
		lab := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, lab = name[:i], name[i+1:len(name)-1]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suf); f != name && kind[f] == "histogram" {
				name = f
			}
		}
		var keys []string
		for _, kv := range strings.Split(lab, ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
				keys = append(keys, k)
			}
		}
		if k := strings.Join(keys, ","); len(k) > len(labels[name]) {
			labels[name] = k
		}
	}
	var out []string
	for _, f := range order {
		out = append(out, strings.TrimSpace(f+" "+kind[f]+" "+labels[f]))
	}
	return out
}

// jsonKeyPaths collects the key paths of a decoded document: a[] for
// array elements, * for the phase-name keys.
func jsonKeyPaths(v any, path string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			if strings.HasSuffix(path, "phase") || strings.HasSuffix(path, "phase_ns") {
				k = "*"
			}
			jsonKeyPaths(c, strings.TrimPrefix(path+"."+k, "."), out)
		}
	case []any:
		for _, c := range x {
			jsonKeyPaths(c, path+"[]", out)
		}
	default:
		out[path] = true
	}
}

// TestSurfaceKeepsParentNames pins "nothing renamed, nothing dropped":
// testdata holds the /metrics families (name, type, label keys) and
// /stats key paths of the commit before the surfaces were derived, and
// those a later change added on purpose (PR 22: dev_prewrite_bytes,
// PR 27: escalation_refusals, PR 28: the index group); today's must
// include them all.
func TestSurfaceKeepsParentNames(t *testing.T) {
	st, _ := populated(t)
	st.Slow.Entries[0].Trace = []TraceEventJSON{{}}

	var prom bytes.Buffer
	writeMetrics(&prom, st)
	have := map[string]bool{}
	for _, f := range promFamilies(prom.String()) {
		have[f] = true
	}
	raw, _ := json.Marshal(st)
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	jsonKeyPaths(doc, "", have)

	for _, file := range []string{"testdata/parent_families.txt", "testdata/parent_stats_keys.txt"} {
		golden, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if !have[want] {
				t.Errorf("%s: %q is gone from the surface", file, want)
			}
			delete(have, want)
		}
	}
	added := make([]string, 0, len(have))
	for k := range have {
		added = append(added, k)
	}
	sort.Strings(added)
	t.Logf("added since the golden lists: %s", strings.Join(added, "; "))
}

// TestIncidentsTotalDoesNotSaturate fires more incidents than the
// bundle ring retains: /stats must keep counting with /metrics.
func TestIncidentsTotalDoesNotSaturate(t *testing.T) {
	e, err := core.Open(core.Scalable())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fr := NewFlightRecorder(e, FlightOptions{})
	const fired = incidentRing + 5
	for i := 0; i < fired; i++ {
		fr.capture(StallKind(i%int(numStallKinds)), int64(i), "test", 1, false)
	}
	if n := len(fr.Snapshot()); n != incidentRing {
		t.Fatalf("ring retains %d bundles, want %d", n, incidentRing)
	}
	st := Snapshot(e, fr)
	var prom bytes.Buffer
	writeMetrics(&prom, &st)
	sum := 0
	for _, m := range regexp.MustCompile(`(?m)^hydra_incidents_total\{kind="\w+"\} (\d+)$`).FindAllStringSubmatch(prom.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		sum += n
	}
	if st.Incidents != fired || sum != fired {
		t.Fatalf("incidents: /stats %d, sum of /metrics %d, fired %d", st.Incidents, sum, fired)
	}
}

// TestDocsNameLiveFamilies is the doc-drift guard: every hydra_* token
// in the prose must be a family of the live exposition, or a prefix of
// one (hydra_txn_phase_*, hydra_log_flushes_{demand,…}).
func TestDocsNameLiveFamilies(t *testing.T) {
	var families []string
	for _, f := range statsPlan.families {
		families = append(families, f.name)
	}
	token := regexp.MustCompile(`hydra_[a-z_]+`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range token.FindAllString(string(text), -1) {
			ok := false
			for _, f := range families {
				// Histogram series carry _bucket/_sum/_count after the family.
				if strings.HasPrefix(f, tok) || strings.HasPrefix(tok, f+"_") {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s names %s, which /metrics does not expose", doc, tok)
			}
		}
	}
}
