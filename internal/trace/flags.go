package trace

import (
	"flag"
	"fmt"
	"path/filepath"
)

// Flags is the flight-recorder command-line block the soak and torture
// drivers share: -trace arms the recorder for the run, -trace-dump
// names a directory for ring dumps on a failing run (and implies
// -trace), -trace-dump-always dumps on a passing run too, and
// -trace-rings and -trace-ring-size size the rings.
type Flags struct {
	on, always     bool
	dir            string
	rings, perRing int
}

// RegisterFlags defines the -trace* flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.on, "trace", false, "arm the flight-recorder event tracer for the run")
	fs.StringVar(&f.dir, "trace-dump", "", "directory for ring dumps on a failing run (implies -trace)")
	fs.BoolVar(&f.always, "trace-dump-always", false, "dump the rings even on a passing run")
	fs.IntVar(&f.rings, "trace-rings", 16, "per-CPU trace rings (+1 aux)")
	fs.IntVar(&f.perRing, "trace-ring-size", DefaultRingSize, "events kept per ring (rounded up to a power of two)")
	return f
}

// Arm arms the recorder when -trace or -trace-dump was given.
func (f *Flags) Arm() {
	if f.on || f.dir != "" {
		Arm(f.rings, f.perRing)
	}
}

// Finish disarms the recorder and, when -trace-dump names a directory
// and the run failed (or -trace-dump-always is set), writes the rings
// to <dir>/<name>-seed<seed>.vmtrace. It returns the path it wrote, or
// "" when no dump was due.
func (f *Flags) Finish(name string, seed uint64, failed bool) (string, error) {
	t := Disarm()
	if t == nil || f.dir == "" || !(failed || f.always) {
		return "", nil
	}
	path := filepath.Join(f.dir, fmt.Sprintf("%s-seed%d.vmtrace", name, seed))
	return path, t.DumpFile(path)
}
