package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// logSuffix ends the name of every collection log: <collection>.jsonl.
const logSuffix = ".jsonl"

// logDir is a directory of collection logs: every write to its files, the
// store's and a standby's, is an appender's or replace's.
type logDir struct {
	fs    FileSystem
	path  string
	syncs *atomic.Int64 // counts the directory's fsyncs; nil counts none
}

// sync fsyncs the directory: the names made in it become durable.
func (d logDir) sync() error {
	if d.syncs != nil {
		d.syncs.Add(1)
	}
	return d.fs.SyncDir(d.path)
}

// logNames returns the collections that have a log in the directory.
func (d logDir) logNames() ([]string, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", d.path, err)
	}
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), logSuffix); ok && !e.IsDir() {
			names = append(names, name)
		}
	}
	return names, nil
}

// replace is the one rewrite of whole files in a log directory (a
// quarantine, a standby's snapshot install and position file): each of
// files (name → bytes) is written to <name>.tmp, which WriteFile syncs,
// then all are renamed over their names, the names in gone are removed (by
// os, as logNames lists), and one directory fsync makes the lot durable. A
// failed write changes no name, and its temporary file is no log to Open.
func (d logDir) replace(files map[string][]byte, gone []string) error {
	for name, data := range files {
		if err := d.fs.WriteFile(filepath.Join(d.path, name+".tmp"), data); err != nil {
			return fmt.Errorf("store: writing %s: %w", name, err)
		}
	}
	for name := range files {
		path := filepath.Join(d.path, name)
		if err := d.fs.Rename(path+".tmp", path); err != nil {
			return fmt.Errorf("store: installing %s: %w", name, err)
		}
	}
	for _, name := range gone {
		if err := os.Remove(filepath.Join(d.path, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: removing %s: %w", name, err)
		}
	}
	return d.sync()
}

// appender writes a collection log through its append handle, under the
// store's walFile and a standby's LogSet. Its first write opens the handle
// and syncs the directory. Its one newline rule: the handle's first write,
// and the first after a failed one, starts on a new line, so whatever ended
// the log before (a failed write's fragment, a death mid-write, a record
// that lost only its newline) stays a line of its own instead of taking the
// next record with it. Every reader skips a blank line.
type appender struct {
	dir     logDir
	path    string
	file    WALFile
	size    int64 // where the next write lands; a failed write's bytes count
	newline bool  // the next write starts on a new line
}

// write appends p in one Write and returns the offset p starts at.
func (a *appender) write(p []byte) (int64, error) {
	if a.file == nil {
		if err := a.open(); err != nil {
			return 0, err
		}
	}
	buf := p
	if a.newline {
		buf = append([]byte{'\n'}, p...)
	}
	n, err := a.file.Write(buf)
	a.size += int64(n)
	a.newline = err != nil
	if err != nil {
		return 0, err
	}
	return a.size - int64(len(p)), nil
}

func (a *appender) open() error {
	f, err := a.dir.fs.OpenAppend(a.path)
	if err != nil {
		return err
	}
	if err := a.dir.sync(); err != nil {
		f.Close()
		return err
	}
	a.file, a.newline = f, true
	return nil
}

func (a *appender) sync() error { return a.file.Sync() }

// close closes the open handle; a later write opens a fresh one.
func (a *appender) close() error {
	err := a.file.Close()
	a.file = nil
	return err
}

// LogSet is a warm standby's collection logs (replica.Follower): the store
// directory a primary's records are appended to and its snapshots installed
// over, written by the store's own appender and replace. Not safe for
// concurrent use.
type LogSet struct {
	dir  logDir
	logs map[string]*appender
}

// LogLine is one record line, without its newline, bound for a collection.
type LogLine struct {
	Collection string
	Line       []byte
}

// NewLogSet returns the log set of the store directory dir on fs.
func NewLogSet(dir string, fs FileSystem) *LogSet {
	return &LogSet{dir: logDir{fs: fs, path: dir}, logs: make(map[string]*appender)}
}

// Append appends each line and a newline to its collection's log, with one
// Write and one fsync per collection touched. A failure closes every handle
// (see Close) and may leave some lines written but not durable.
func (s *LogSet) Append(lines []LogLine) (err error) {
	var order []string
	batch := make(map[string][]byte)
	for _, l := range lines {
		if _, ok := batch[l.Collection]; !ok {
			order = append(order, l.Collection)
		}
		batch[l.Collection] = append(append(batch[l.Collection], l.Line...), '\n')
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	for _, name := range order {
		if s.logs[name] == nil {
			s.logs[name] = &appender{dir: s.dir, path: WALPath(s.dir.path, name)}
		}
		if _, err := s.logs[name].write(batch[name]); err != nil {
			return fmt.Errorf("store: appending to %s: %w", name, err)
		}
	}
	for _, name := range order {
		if err := s.logs[name].sync(); err != nil {
			return fmt.Errorf("store: fsync %s: %w", name, err)
		}
	}
	return nil
}

// Install replaces the whole log set with a snapshot's sections (collection
// → log bytes), removing a log with no section. A failed write leaves every
// log as it was.
func (s *LogSet) Install(sections map[string][]byte) error {
	s.Close() // a handle would append to a replaced inode
	have, err := s.dir.logNames()
	if err != nil {
		return err
	}
	files := make(map[string][]byte, len(sections))
	for name, log := range sections {
		files[name+logSuffix] = log
	}
	var gone []string
	for _, name := range have {
		if _, ok := sections[name]; !ok {
			gone = append(gone, name+logSuffix)
		}
	}
	return s.dir.replace(files, gone)
}

// SaveFile durably replaces the file name in the set's directory with data,
// as Install does a log.
func (s *LogSet) SaveFile(name string, data []byte) error {
	return s.dir.replace(map[string][]byte{name: data}, nil)
}

// Close syncs and closes every open handle; the next Append opens fresh
// ones.
func (s *LogSet) Close() {
	for _, a := range s.logs {
		if a.file != nil {
			_ = a.sync()
			_ = a.close()
		}
	}
}
