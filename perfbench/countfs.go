package main

import (
	"io"
	"sync/atomic"
	"time"

	"viptree/internal/wal"
)

// countFS wraps a wal.FS and counts what the layers above ask of the disk:
// fsyncs and the time they take, bytes appended, files opened for reading
// and bytes read from them. The traced run hands it to the node through
// server.Options.FS and to durable engines through
// engine.Options.WALOptions.FS.
type countFS struct {
	wal.FS
	syncs, syncNS    atomic.Int64
	written          atomic.Int64
	reads, readBytes atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: wal.OSFS{}} }

func (c *countFS) Open(name string) (io.ReadCloser, error) {
	rc, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	c.reads.Add(1)
	return &countReader{ReadCloser: rc, fs: c}, nil
}

func (c *countFS) OpenAppend(name string) (wal.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countReader struct {
	io.ReadCloser
	fs *countFS
}

func (r *countReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.fs.readBytes.Add(int64(n))
	return n, err
}

type countFile struct {
	wal.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncNS.Add(int64(time.Since(t0)))
	f.fs.syncs.Add(1)
	return err
}
