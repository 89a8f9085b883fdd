package data

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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
//
// It accepts and rejects exactly what encoding/csv with strconv.Atoi and
// strconv.ParseFloat accept and reject, and reads the same values, in one
// streaming pass. An unquoted line is parsed where it lies: each number is
// converted in place (parseFloatField) and the comma after it stepped over.
// A line the pass does not take whole is parsed again field by field as
// encoding/csv splits it, and a record holding a double quote is read by
// encoding/csv itself. A task's features are cut from shared chunks; each
// sample's X is a capacity-capped window of one, so an append to one sample
// cannot reach another's features. Errors name the line the record starts on.
func ReadCSV(r io.Reader, name string) (*Stream, error) {
	lr := lineReader{br: bufio.NewReaderSize(r, 64<<10)}
	header, err := lr.header()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	if len(header) < 5 || header[0] != "task" || header[1] != "env" || header[2] != "y" || header[3] != "s" {
		return nil, fmt.Errorf("data: unexpected CSV header %v (want task,env,y,s,x0,...)", header)
	}
	in := ingest{dim: len(header) - 4, tasks: map[int]*taskAcc{}}
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: %w", lr.line, err)
		}
		body := trimEOL(line)
		if len(body) == 0 {
			continue // encoding/csv skips blank lines
		}
		start := lr.line
		if bytes.IndexByte(body, '"') < 0 {
			if in.fastRow(body) {
				continue
			}
			err = in.row(strings.Split(string(body), ","))
		} else {
			var fields []string
			if fields, err = lr.quoted(line, 4+in.dim); err == nil {
				err = in.row(fields)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: %w", start, err)
		}
	}
	if len(in.tasks) == 0 {
		return nil, fmt.Errorf("data: CSV contains no samples")
	}

	ids := make([]int, 0, len(in.tasks))
	for id := range in.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stream := &Stream{Name: name, Dim: in.dim, Classes: 2}
	for _, id := range ids {
		acc := in.tasks[id]
		pool := NewDataset(fmt.Sprintf("%s/task%d", name, id), in.dim, 2)
		pool.Samples = acc.samples
		stream.Tasks = append(stream.Tasks, Task{
			ID:   id,
			Env:  acc.env,
			Name: fmt.Sprintf("task%d", id),
			Pool: pool,
		})
	}
	return stream, nil
}

// ingest accumulates ReadCSV's rows by task.
type ingest struct {
	dim   int
	tasks map[int]*taskAcc
}

// taskAcc holds one task's rows: its env (from its first row), its samples,
// and the unused rest of the chunk their features are cut from.
type taskAcc struct {
	env     int
	samples []Sample
	free    []float64
}

// chunkFloats caps a feature chunk at 64 KiB (512 rows of 16 features).
// A task's chunks hold as many rows as it has so far, from one up to the
// cap, so a small task reserves at most twice its features and a large one
// wastes less than one chunk, in a few allocations.
const chunkFloats = 1 << 13

// features returns a capacity-capped window of dim floats for the next
// sample's features, cut from the current chunk or a new one.
func (acc *taskAcc) features(dim int) []float64 {
	if len(acc.free) < dim {
		rows := min(max(len(acc.samples), 1), max(chunkFloats/dim, 1))
		acc.free = make([]float64, rows*dim)
	}
	x := acc.free[:dim:dim]
	acc.free = acc.free[dim:]
	return x
}

// task returns the accumulator of task id, starting it with env.
func (in *ingest) task(id, env int) *taskAcc {
	acc, ok := in.tasks[id]
	if !ok {
		acc = &taskAcc{env: env}
		in.tasks[id] = acc
	}
	return acc
}

// fastRow parses an unquoted record where it lies and reports whether it
// took it: four integers and dim floats, each followed by the comma the next
// field needs, the last by the end of the line, with a binary label and a ±1
// sensitive value. It takes nothing from a row it does not take whole; row
// then reads that row as encoding/csv splits it and says what is wrong.
func (in *ingest) fastRow(body []byte) bool {
	var ints [4]int // task, env, y, s
	p := 0
	for k := range ints {
		v, n, ok := parseIntPrefix(body[p:])
		if !ok || p+n == len(body) || body[p+n] != ',' {
			return false
		}
		ints[k] = v
		p += n + 1
	}
	y, s := ints[2], ints[3]
	if y != 0 && y != 1 || s != -1 && s != 1 {
		return false
	}
	acc := in.task(ints[0], ints[1])
	free := acc.free
	x := acc.features(in.dim)
	for k := range x {
		v, n, err := parseFloatField(body[p:])
		if err != nil || (p+n == len(body)) != (k == len(x)-1) {
			acc.free = free
			return false
		}
		x[k] = v
		p += n + 1
	}
	acc.samples = append(acc.samples, Sample{X: x, Y: y, S: s, Env: ints[1]})
	return true
}

// row parses one record's fields with strconv, as encoding/csv and strconv
// read them, and names the first thing wrong with it.
func (in *ingest) row(fields []string) error {
	if len(fields) != 4+in.dim {
		return csv.ErrFieldCount
	}
	taskID, err := strconv.Atoi(fields[0])
	if err != nil {
		return fmt.Errorf("bad task id %q", fields[0])
	}
	env, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("bad env %q", fields[1])
	}
	y, err := strconv.Atoi(fields[2])
	if err != nil || (y != 0 && y != 1) {
		return fmt.Errorf("bad label %q", fields[2])
	}
	s, err := strconv.Atoi(fields[3])
	if err != nil || (s != -1 && s != 1) {
		return fmt.Errorf("bad sensitive value %q", fields[3])
	}
	acc := in.task(taskID, env)
	x := acc.features(in.dim)
	for i, f := range fields[4:] {
		if x[i], err = strconv.ParseFloat(f, 64); err != nil {
			return fmt.Errorf("bad feature %q", f)
		}
	}
	acc.samples = append(acc.samples, Sample{X: x, Y: y, S: s, Env: env})
	return nil
}

// lineReader hands out the input's physical lines.
type lineReader struct {
	br   *bufio.Reader
	line int    // number of the last line handed out, from 1
	long []byte // a line longer than br's buffer, assembled
	rec  []byte // a quoted record's lines, copied out of br
}

// next returns the next line with its '\n' (absent on a last line that has
// none), valid until the following call, or io.EOF after the last line.
func (lr *lineReader) next() ([]byte, error) {
	b, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], b...)
		for err == bufio.ErrBufferFull {
			b, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, b...)
		}
		b = lr.long
	}
	if len(b) == 0 {
		return nil, err
	}
	lr.line++
	if err == io.EOF {
		err = nil
	}
	return b, err
}

// trimEOL returns line's content as encoding/csv sees it: without its '\n'
// and then without one '\r', which drops a "\r\n" end and a '\r' before EOF.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// header returns the first record's fields.
func (lr *lineReader) header() ([]string, error) {
	for {
		line, err := lr.next()
		if err != nil {
			return nil, err
		}
		body := trimEOL(line)
		if len(body) == 0 {
			continue
		}
		if bytes.IndexByte(body, '"') < 0 {
			return strings.Split(string(body), ","), nil
		}
		return lr.quoted(line, 0)
	}
}

// quoted reads the record that starts at line, which holds a double quote,
// with encoding/csv: line and, while the record's quotes are unbalanced, the
// lines after it. encoding/csv continues a record past a line end only
// inside a quoted field, that is after an odd number of quotes, so the lines
// gathered are the whole record, and encoding/csv reads from them what it
// reads from the whole input. A positive width is the fields it must have.
func (lr *lineReader) quoted(line []byte, width int) ([]string, error) {
	start := lr.line
	lr.rec = append(lr.rec[:0], line...)
	for q := bytes.Count(line, []byte{'"'}); q%2 == 1; {
		more, err := lr.next()
		if err == io.EOF {
			break // an unterminated quoted field: encoding/csv says so
		}
		if err != nil {
			return nil, err
		}
		lr.rec = append(lr.rec, more...)
		q += bytes.Count(more, []byte{'"'})
	}
	cr := csv.NewReader(bytes.NewReader(lr.rec))
	cr.FieldsPerRecord = width
	fields, err := cr.Read()
	var pe *csv.ParseError
	if errors.As(err, &pe) { // count its lines from the input's first
		pe.StartLine += start - 1
		pe.Line += start - 1
	}
	return fields, err
}
