package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV serializes a stream as CSV with the canonical header
// task,env,y,s,x0,...,x{d-1} — the format read back by ReadCSV and emitted by
// the faction-datasets tool.
func WriteCSV(w io.Writer, stream *Stream) error {
	cw := csv.NewWriter(w)
	header := []string{"task", "env", "y", "s"}
	for i := 0; i < stream.Dim; i++ {
		header = append(header, fmt.Sprintf("x%d", i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, task := range stream.Tasks {
		for _, smp := range task.Pool.Samples {
			row = row[:0]
			row = append(row,
				strconv.Itoa(task.ID), strconv.Itoa(task.Env),
				strconv.Itoa(smp.Y), strconv.Itoa(smp.S))
			for _, v := range smp.X {
				row = append(row, strconv.FormatFloat(v, 'g', 17, 64))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a stream from the canonical CSV format. Tasks are
// reconstructed in ascending task-id order; every row must carry a binary
// label, a ±1 sensitive value and a consistent feature dimensionality. This
// is how real-world datasets (for example an actual Stop-and-Frisk export)
// enter the protocol.
func ReadCSV(r io.Reader, name string) (*Stream, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	if len(header) < 5 || header[0] != "task" || header[1] != "env" || header[2] != "y" || header[3] != "s" {
		return nil, fmt.Errorf("data: unexpected CSV header %v (want task,env,y,s,x0,...)", header)
	}
	dim := len(header) - 4
	// Every field is parsed before the next Read, so one record slice
	// serves every row.
	cr.ReuseRecord = true

	type taskAcc struct {
		env  int
		pool *Dataset
	}
	tasks := map[int]*taskAcc{}
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: %w", line, err)
		}
		taskID, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: bad task id %q", line, row[0])
		}
		env, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: bad env %q", line, row[1])
		}
		y, err := strconv.Atoi(row[2])
		if err != nil || (y != 0 && y != 1) {
			return nil, fmt.Errorf("data: CSV line %d: bad label %q", line, row[2])
		}
		s, err := strconv.Atoi(row[3])
		if err != nil || (s != -1 && s != 1) {
			return nil, fmt.Errorf("data: CSV line %d: bad sensitive value %q", line, row[3])
		}
		x := make([]float64, dim)
		for i := 0; i < dim; i++ {
			x[i], err = strconv.ParseFloat(row[4+i], 64)
			if err != nil {
				return nil, fmt.Errorf("data: CSV line %d: bad feature %q", line, row[4+i])
			}
		}
		acc, ok := tasks[taskID]
		if !ok {
			acc = &taskAcc{env: env, pool: NewDataset(fmt.Sprintf("%s/task%d", name, taskID), dim, 2)}
			tasks[taskID] = acc
		}
		acc.pool.Append(Sample{X: x, Y: y, S: s, Env: env})
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("data: CSV contains no samples")
	}

	ids := make([]int, 0, len(tasks))
	for id := range tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stream := &Stream{Name: name, Dim: dim, Classes: 2}
	for _, id := range ids {
		acc := tasks[id]
		stream.Tasks = append(stream.Tasks, Task{
			ID:   id,
			Env:  acc.env,
			Name: fmt.Sprintf("task%d", id),
			Pool: acc.pool,
		})
	}
	return stream, nil
}
