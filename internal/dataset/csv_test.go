package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestCSVRoundTripClassification(t *testing.T) {
	ds := sampleClassification()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "toy", Classification)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Dim() != ds.Dim() {
		t.Fatalf("round trip %dx%d, want %dx%d", got.Len(), got.Dim(), ds.Len(), ds.Dim())
	}
	for i := range ds.X {
		if !got.X[i].Equal(ds.X[i], 0) {
			t.Errorf("record %d = %v, want %v", i, got.X[i], ds.X[i])
		}
		if got.ClassNames[got.Labels[i]] != ds.ClassNames[ds.Labels[i]] {
			t.Errorf("record %d label %q, want %q", i,
				got.ClassNames[got.Labels[i]], ds.ClassNames[ds.Labels[i]])
		}
	}
}

func TestCSVRoundTripRegression(t *testing.T) {
	ds := sampleRegression()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "toyreg", Regression)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Targets {
		if got.Targets[i] != ds.Targets[i] {
			t.Errorf("target %d = %g, want %g", i, got.Targets[i], ds.Targets[i])
		}
	}
}

func TestCSVNumericLabels(t *testing.T) {
	in := "a,b,class\n1,2,0\n3,4,1\n"
	ds, err := ReadCSV(strings.NewReader(in), "n", Classification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Labels[0] != 0 || ds.Labels[1] != 1 {
		t.Errorf("Labels = %v", ds.Labels)
	}
}

// TestCSVMixedLabels is the regression test for a class column mixing
// names and numbers: the numeric label used to be parsed as a class index
// while the names were interned from 0, so "yes" and "0" read as one
// class. Every label is now a name as soon as one is not a non-negative
// integer.
func TestCSVMixedLabels(t *testing.T) {
	for _, tc := range []struct {
		labels []string
		names  []string
		want   []int
	}{
		{[]string{"yes", "0", "yes"}, []string{"yes", "0"}, []int{0, 1, 0}},
		{[]string{"yes", "0", "yes", "7"}, []string{"yes", "0", "7"}, []int{0, 1, 0, 2}},
		{[]string{"3", "-1", "3"}, []string{"3", "-1"}, []int{0, 1, 0}},
	} {
		in := "a,class\n"
		for i, l := range tc.labels {
			in += fmt.Sprintf("%d,%s\n", i, l)
		}
		ds, err := ReadCSV(strings.NewReader(in), "mixed", Classification)
		if err != nil {
			t.Fatalf("%q: %v", tc.labels, err)
		}
		if fmt.Sprint(ds.ClassNames) != fmt.Sprint(tc.names) || fmt.Sprint(ds.Labels) != fmt.Sprint(tc.want) {
			t.Errorf("%q: ClassNames %q, Labels %v; want %q, %v", tc.labels, ds.ClassNames, ds.Labels, tc.names, tc.want)
		}
	}
}

// TestCSVRoundTripNumericClassName round-trips a data set whose class
// names include numerals among other names.
func TestCSVRoundTripNumericClassName(t *testing.T) {
	ds := &Dataset{
		Name:       "names",
		Attrs:      []string{"x"},
		ClassNames: []string{"b", "0", "a", "2"},
		Task:       Classification,
	}
	for i, label := range []int{1, 0, 3, 2, 1, 3} {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Labels = append(ds.Labels, label)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "names", Classification)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClasses() != ds.NumClasses() {
		t.Fatalf("%d classes, want %d", got.NumClasses(), ds.NumClasses())
	}
	for i := range ds.Labels {
		if g, w := got.ClassNames[got.Labels[i]], ds.ClassNames[ds.Labels[i]]; g != w {
			t.Errorf("record %d: class %q, want %q", i, g, w)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
		task     Task
	}{
		{"empty", "", Classification},
		{"one column", "a\n1\n", Classification},
		{"bad float", "a,b,class\n1,x,0\n", Classification},
		{"ragged", "a,b,class\n1,2,0\n1,0\n", Classification},
		{"bad target", "a,target\n1,zzz\n", Regression},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.in), tc.name, tc.task); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteCSVValidates(t *testing.T) {
	ds := sampleClassification()
	ds.Labels = ds.Labels[:2]
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err == nil {
		t.Error("invalid data set written")
	}
}

func TestWriteCSVSynthesizesHeader(t *testing.T) {
	ds := sampleRegression()
	ds.Attrs = nil
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "attr0,target") {
		t.Errorf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}
