package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagsDumpImpliesArm pins the shared driver flags: -trace-dump
// alone arms the recorder, a passing run without -trace-dump-always
// writes nothing, and a failing run writes a decodable
// <name>-seed<N>.vmtrace.
func TestFlagsDumpImpliesArm(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-trace-dump", dir, "-trace-rings", "2"}); err != nil {
		t.Fatal(err)
	}
	defer Disarm()

	f.Arm()
	if !Armed() {
		t.Fatal("-trace-dump did not arm the recorder")
	}
	Emit(0, EvFaultEnter, 1, 2, 3)
	if path, err := f.Finish("driver", 7, false); err != nil || path != "" {
		t.Fatalf("passing run: Finish = %q, %v; want no dump", path, err)
	}
	if Armed() {
		t.Fatal("Finish left the recorder armed")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("passing run left %d files in the dump directory (err %v)", len(entries), err)
	}

	f.Arm()
	Emit(0, EvFaultEnter, 1, 2, 3)
	path, err := f.Finish("driver", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "driver-seed7.vmtrace"); path != want {
		t.Fatalf("failing run dumped to %q, want %q", path, want)
	}
	d, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merged()) == 0 {
		t.Fatal("dump holds no events")
	}
}

// TestFlagsUnsetLeaveRecorderDisarmed: with no -trace* flag the
// drivers run with the recorder off.
func TestFlagsUnsetLeaveRecorderDisarmed(t *testing.T) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	f.Arm()
	if Armed() {
		Disarm()
		t.Fatal("recorder armed without -trace or -trace-dump")
	}
	if path, err := f.Finish("driver", 1, true); err != nil || path != "" {
		t.Fatalf("Finish = %q, %v; want no dump", path, err)
	}
}
