// The metric walker. The snapshot structs are the registry: a numeric
// or HistJSON field of StatsJSON (or of a struct it holds) is a metric,
// its json tag is the wire name, and an optional `metric` tag carries
// what the name alone cannot:
//
//	metric:"-"              not a metric (rendered by explicit code, or not at all)
//	metric:"gauge"          a level; without it a number is a cumulative counter
//	metric:"name=<family>"  Prometheus family, where the naming rule
//	                        hydra_[<group>_]<wire>[_seconds][_total] does not give the existing one
//	metric:"label=<k>:<v>"  a constant label on this field's series
//	metric:"key=<label>"    on a slice or map: the label naming the index or key
//	metric:"label"          on a string field of a slice element: labels every series of that element
//
// A wire name ending in _ns is exposed in seconds at /metrics, as every
// histogram is. The plan is built once, at init, from the types; a
// scrape walks the cached plan over one Snapshot. /stats and STATS FULL
// are encoding/json over the same structs, so adding a field to a Stats
// struct puts it on every surface.
package server

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/hist"
)

// leaf is one metric: how to name it and how to reach its value(s).
type leaf struct {
	wire, family string
	kind         string // counter | gauge | histogram
	seconds      bool   // nanoseconds on the wire, seconds at /metrics
	labels       string // constant labels
	steps        []step
}

// step moves from a struct into one field and, when iter is set, on to
// every element of the slice or map held there.
type step struct {
	field      int
	iter       bool
	key        string // label naming the index or map key; "" when elements label themselves
	elemLabels []elemLabel
}

type elemLabel struct {
	field int
	name  string
}

// set is a named list of leaves: a Prometheus family (one TYPE line,
// then every series of every leaf that names it) or a /stats group.
type set struct {
	name   string
	leaves []*leaf
}

func collect(sets []*set, name string, l *leaf) []*set {
	for _, s := range sets {
		if s.name == name {
			s.leaves = append(s.leaves, l)
			return sets
		}
	}
	return append(sets, &set{name, []*leaf{l}})
}

// statsPlan is the walk over StatsJSON. groups holds what WriteGroups
// prints: every leaf not inside a slice of structs or a map, which are
// the tables the commands draw themselves.
var statsPlan struct{ families, groups []*set }

var histType = reflect.TypeOf(HistJSON{})

func init() { planType(reflect.TypeOf(StatsJSON{}), "", nil, false) }

func numeric(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr
}

func planType(t reflect.Type, group string, steps []step, table bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("metric")
		if !f.IsExported() || tag == "-" || tag == "label" {
			continue
		}
		wire, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if wire == "-" {
			wire = ""
		}
		l := &leaf{wire: wire, kind: "counter", seconds: strings.HasSuffix(wire, "_ns")}
		s := step{field: i}
		for _, opt := range strings.Split(tag, ",") {
			switch k, v, _ := strings.Cut(opt, "="); k {
			case "gauge":
				l.kind = "gauge"
			case "name":
				l.family = v
			case "key":
				s.key = v
			case "label":
				lk, lv, _ := strings.Cut(v, ":")
				l.labels = fmt.Sprintf("%s=%q", lk, lv)
			}
		}
		ft := f.Type
		if ft.Kind() == reflect.Slice || ft.Kind() == reflect.Map {
			s.iter = true
			ft = ft.Elem()
		}
		switch {
		case ft == histType:
			l.kind, l.seconds = "histogram", true
		case numeric(ft.Kind()):
		case ft.Kind() == reflect.Struct:
			for j := 0; s.iter && j < ft.NumField(); j++ {
				if ef := ft.Field(j); ef.Tag.Get("metric") == "label" {
					name, _, _ := strings.Cut(ef.Tag.Get("json"), ",")
					s.elemLabels = append(s.elemLabels, elemLabel{j, name})
				}
			}
			if f.Anonymous {
				wire = group
			}
			planType(ft, wire, append(steps[:len(steps):len(steps)], s), table || s.iter)
			continue
		default:
			continue
		}
		l.steps = append(steps[:len(steps):len(steps)], s)
		if l.family == "" {
			l.family = "hydra_"
			if group != "" {
				l.family += group + "_"
			}
			l.family += strings.TrimSuffix(wire, "_ns")
			if l.seconds {
				l.family += "_seconds"
			}
			if l.kind == "counter" {
				l.family += "_total"
			}
		}
		statsPlan.families = collect(statsPlan.families, l.family, l)
		if !table && (!s.iter || f.Type.Kind() == reflect.Slice && numeric(ft.Kind())) {
			name := group
			if name == "" {
				name = "engine"
			}
			statsPlan.groups = collect(statsPlan.groups, name, l)
		}
	}
}

func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// each calls fn with every value of the leaf under v and the labels
// that tell them apart. Inner labels go first (phase before path and
// outcome), as the exposition has always had them.
func each(v reflect.Value, steps []step, labels string, fn func(labels string, v reflect.Value)) {
	if len(steps) == 0 {
		fn(labels, v)
		return
	}
	s, rest := steps[0], steps[1:]
	v = v.Field(s.field)
	switch {
	case !s.iter:
		each(v, rest, labels, fn)
	case v.Kind() == reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			each(v.MapIndex(k), rest, joinLabels(fmt.Sprintf("%s=%q", s.key, k.String()), labels), fn)
		}
	default:
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			own := ""
			if s.key != "" {
				own = fmt.Sprintf("%s=\"%d\"", s.key, i)
			}
			for _, el := range s.elemLabels {
				own = joinLabels(own, fmt.Sprintf("%s=%q", el.name, e.Field(el.field).String()))
			}
			each(e, rest, joinLabels(own, labels), fn)
		}
	}
}

func toFloat(v reflect.Value) float64 {
	return v.Convert(reflect.TypeOf(float64(0))).Float()
}

// series names one sample line: name{labels}, or the bare name.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// writeMetrics renders the Prometheus text exposition of one snapshot:
// every family of the plan, observed yet or not, under exactly one
// TYPE line.
func writeMetrics(w io.Writer, st *StatsJSON) {
	root := reflect.ValueOf(st).Elem()
	for _, f := range statsPlan.families {
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.leaves[0].kind)
		for _, l := range f.leaves {
			each(root, l.steps, l.labels, func(labels string, v reflect.Value) {
				switch {
				case l.kind == "histogram":
					h := v.Interface().(HistJSON).h
					writeHistSeries(w, f.name, labels, &h)
				case l.seconds:
					fmt.Fprintf(w, "%s %g\n", series(f.name, labels), toFloat(v)/1e9)
				default:
					fmt.Fprintf(w, "%s %v\n", series(f.name, labels), v.Interface())
				}
			})
		}
	}
}

// writeHistSeries emits one histogram series. Bucket edges are the
// power-of-two nanosecond upper bounds converted to seconds; empty
// buckets are elided (cumulative counts stay monotone) and +Inf closes
// the series per the exposition format.
func writeHistSeries(w io.Writer, name, labels string, h *hist.H) {
	var cum uint64
	for i := 0; i < hist.NumBuckets-1; i++ {
		if c := h.Bucket(i); c > 0 {
			cum += c
			le := strconv.FormatFloat(hist.BucketUpper(i).Seconds(), 'g', -1, 64)
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="`+le+`"`), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, `le="+Inf"`), h.Count())
	fmt.Fprintf(w, "%s %g\n%s %d\n", series(name+"_sum", labels), h.Sum().Seconds(), series(name+"_count", labels), h.Count())
}

// field returns the leaf's value in st: the field itself, or the whole
// slice for a slice of numbers.
func (l *leaf) field(st *StatsJSON) reflect.Value {
	v := reflect.ValueOf(st).Elem()
	for _, s := range l.steps {
		v = v.Field(s.field)
	}
	return v
}

// WriteGroups prints every metric outside the tables as wire=value, one
// block per group, histograms as their summaries. With prev it adds
// each counter's rate over dt. A group whose every value is zero (dora
// and mvcc when unused) is left out.
func WriteGroups(w io.Writer, st, prev *StatsJSON, dt time.Duration) {
	for _, g := range statsPlan.groups {
		lines, dists, live := []string{fmt.Sprintf("%-9s", g.name)}, []string(nil), false
		for _, l := range g.leaves {
			v := l.field(st)
			if l.kind == "histogram" {
				if h := v.Interface().(HistJSON); h.Count > 0 {
					live = true
					dists = append(dists, fmt.Sprintf("%-9s %s: %s", "", l.wire, h.Summary))
				}
				continue
			}
			item := fmt.Sprintf(" %s=%v", l.wire, v.Interface())
			live = live || !(v.IsZero() || v.Kind() == reflect.Slice && v.Len() == 0)
			if prev != nil && dt > 0 && l.kind == "counter" {
				if d := toFloat(v) - toFloat(l.field(prev)); d >= 0 {
					item += fmt.Sprintf("(%.0f/s)", d/dt.Seconds())
				}
			}
			if last := &lines[len(lines)-1]; len(*last)+len(item) > 100 {
				lines = append(lines, fmt.Sprintf("%-9s", "")+item)
			} else {
				*last += item
			}
		}
		if live {
			fmt.Fprintln(w, strings.Join(append(lines, dists...), "\n"))
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// WriteDerived prints the figures no single counter carries.
func WriteDerived(w io.Writer, st *StatsJSON) {
	fmt.Fprintf(w, "derived   buffer hit=%.2f%%  log %.1f records/flush %.2f writes/flush  lock heads %.1f%% recycled",
		100*ratio(st.Buffer.Hits, st.Buffer.Hits+st.Buffer.Misses),
		ratio(st.Log.Inserts, st.Log.Flushes), ratio(st.Log.FlushWrites, st.Log.Flushes),
		100*ratio(st.Lock.HeadRecycles, st.Lock.HeadAllocs+st.Lock.HeadRecycles))
	if txns := st.Dora.SinglePartition + st.Dora.CrossPartition; txns > 0 {
		fmt.Fprintf(w, "  dora %.1f%% single-partition", 100*ratio(st.Dora.SinglePartition, txns))
	}
	fmt.Fprintln(w)
}
