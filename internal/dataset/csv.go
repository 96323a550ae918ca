package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"condensation/internal/mat"
)

// WriteCSV writes the data set with a header row. Attribute columns come
// first; the final column is the class label (classification) or the
// target value (regression).
func WriteCSV(w io.Writer, ds *Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := append([]string(nil), ds.Attrs...)
	if len(header) == 0 {
		for j := 0; j < ds.Dim(); j++ {
			header = append(header, fmt.Sprintf("attr%d", j))
		}
	}
	if ds.Task == Classification {
		header = append(header, "class")
	} else {
		header = append(header, "target")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, ds.Dim()+1)
	for i, x := range ds.X {
		for j, v := range x {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if ds.Task == Classification {
			if ds.ClassNames != nil {
				row[len(row)-1] = ds.ClassNames[ds.Labels[i]]
			} else {
				row[len(row)-1] = strconv.Itoa(ds.Labels[i])
			}
		} else {
			row[len(row)-1] = strconv.FormatFloat(ds.Targets[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a data set written by WriteCSV (or any CSV with a header
// row, numeric attribute columns, and a final supervision column). For
// classification, a column of non-negative integer labels is parsed as
// class indices. If any label is anything else, every label — numeric
// ones included — is interned into ClassNames in order of first
// appearance, so a column mixing "yes" and "0" keeps them two classes.
func ReadCSV(r io.Reader, name string, task Task) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: header has %d columns, want at least 2", len(header))
	}
	d := len(header) - 1
	ds := &Dataset{
		Name:  name,
		Attrs: append([]string(nil), header[:d]...),
		Task:  task,
	}
	// Every label is interned as it is read; numeric stays true while all
	// of them are non-negative integers.
	classIndex := map[string]int{}
	var names []string
	numeric := true
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if len(rec) != d+1 {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), d+1)
		}
		x := make(mat.Vector, d)
		for j := 0; j < d; j++ {
			x[j], err = strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, column %q: %w", line, header[j], err)
			}
		}
		ds.X = append(ds.X, x)
		last := rec[d]
		if task == Classification {
			idx, ok := classIndex[last]
			if !ok {
				idx = len(names)
				name := strings.Clone(last) // last shares the whole record's backing string
				classIndex[name] = idx
				names = append(names, name)
				if v, err := strconv.Atoi(name); err != nil || v < 0 {
					numeric = false
				}
			}
			ds.Labels = append(ds.Labels, idx)
		} else {
			y, err := strconv.ParseFloat(last, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, target: %w", line, err)
			}
			ds.Targets = append(ds.Targets, y)
		}
	}
	if numeric {
		// All labels are class indices: map each interned label to its
		// value.
		value := make([]int, len(names))
		for i, name := range names {
			value[i], _ = strconv.Atoi(name)
		}
		for i, idx := range ds.Labels {
			ds.Labels[i] = value[idx]
		}
	} else {
		ds.ClassNames = names
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
