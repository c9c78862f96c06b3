package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLIFlags carries the batch CLI's profiling trio. The daemons profile
// over HTTP; riskybiz runs to completion, so it writes profile files
// bracketing the whole run instead.
type CLIFlags struct {
	CPUProfile   string
	MemProfile   string
	MutexProfile string
}

// RegisterCLIFlags installs -cpuprofile/-memprofile/-mutexprofile on fs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	var f CLIFlags
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile for the whole run to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile at exit to `file`")
	fs.StringVar(&f.MutexProfile, "mutexprofile", "", "enable mutex profiling and write the profile at exit to `file`")
	return &f
}

// Start begins the requested profiles and returns a stop function to
// defer in main: it stops the CPU profile and writes the exit-time
// heap/mutex snapshots. Errors go to stderr — a failed profile write
// must not fail the run it was observing.
func (f *CLIFlags) Start() (stop func()) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		var err error
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		} else if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			cpuFile.Close()
			cpuFile = nil
		}
	}
	prevMutex := 0
	if f.MutexProfile != "" {
		prevMutex = runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.MemProfile != "" {
			if err := WriteCLIProfile(f.MemProfile, "heap"); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
		if f.MutexProfile != "" {
			if err := WriteCLIProfile(f.MutexProfile, "mutex"); err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
			}
			runtime.SetMutexProfileFraction(prevMutex)
		}
	}
}

// WriteCLIProfile is the exit-path helper behind the batch CLI's
// -memprofile/-mutexprofile flags: it snapshots the named runtime
// profile to path. (CPU profiles need start/stop bracketing — see
// Start.)
func WriteCLIProfile(path, name string) error {
	if name == "heap" {
		runtime.GC() // fold garbage out of the in-use numbers
	}
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("prof: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
