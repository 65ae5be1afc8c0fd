// Package cliutil holds the flag-handling conventions shared by every
// cmd/* binary: one -version flag with a uniform stamp, a usage banner
// naming the binary (unknown flags print it and exit 2, the flag
// package's ExitOnError behavior), and the positive / zero-means-default
// integer validation that sophon-server and sophon-train previously
// carried as duplicated private helpers.
package cliutil

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
)

// Version is the repo-wide version stamp every binary reports under
// -version. Bump it when cutting a tagged snapshot of the tree.
const Version = "0.7.0"

// VersionLine is the single line printed by -version:
//
//	sophon-server 0.7.0 go1.24.0 linux/amd64
func VersionLine(name string) string {
	return fmt.Sprintf("%s %s %s %s/%s", name, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// Setup registers the shared -version flag on fs and installs a usage
// banner that leads with the binary name and synopsis. It must run after
// the binary's own flags are registered and before fs is parsed. The
// returned bool reports, post-parse, whether -version was requested.
func Setup(fs *flag.FlagSet, name, synopsis string) *bool {
	version := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "Usage: %s [flags]\n", name)
		if synopsis != "" {
			fmt.Fprintf(out, "%s\n", synopsis)
		}
		fmt.Fprintf(out, "\nFlags:\n")
		fs.PrintDefaults()
	}
	return version
}

// Parse is ParseArgs on the default flag set and os.Args: the entry point of a
// main() that is its own body. Unknown flags print the usage banner and exit
// 2 (flag.CommandLine exits on error itself); -version exits 0.
func Parse(name, synopsis string) {
	if done, _ := ParseArgs(flag.CommandLine, os.Args[1:], name, synopsis); done {
		os.Exit(0)
	}
}

// ParseArgs wires Setup into fs and parses args. A binary whose body is a
// run(fs, args) that tests call passes flag.CommandLine from main and a
// ContinueOnError set from a test, where a parse error (flag.ErrHelp after
// -help) comes back once the flag package has printed it and the usage banner
// on fs.Output(). done reports that -version printed VersionLine on stdout.
func ParseArgs(fs *flag.FlagSet, args []string, name, synopsis string) (done bool, err error) {
	version := Setup(fs, name, synopsis)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *version {
		fmt.Println(VersionLine(name))
	}
	return *version, nil
}

// CheckInts validates integer flag values and returns every violation,
// sorted by flag name. Flags in positive must be > 0. Flags in
// zeroMeansDefault must be >= 0, and 0 is only allowed implicitly — a
// user who writes -flag=0 explicitly gets an error instead of silently
// falling back to the default. explicit holds the set of flag names the
// user actually set (see flag.FlagSet.Visit).
func CheckInts(explicit, positive, zeroMeansDefault map[string]bool, values map[string]int) []error {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		v := values[name]
		switch {
		case positive[name] && v <= 0:
			errs = append(errs, fmt.Errorf("-%s must be positive, got %d", name, v))
		case zeroMeansDefault[name] && v < 0:
			errs = append(errs, fmt.Errorf("-%s must be non-negative, got %d", name, v))
		case zeroMeansDefault[name] && v == 0 && explicit[name]:
			errs = append(errs, fmt.Errorf("-%s must be positive when set explicitly (omit it for the default)", name))
		}
	}
	return errs
}

// IntError is the first CheckInts violation among fs's parsed flags, or nil.
func IntError(fs *flag.FlagSet, positive, zeroMeansDefault map[string]bool, values map[string]int) error {
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if errs := CheckInts(explicit, positive, zeroMeansDefault, values); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// ValidateInts is IntError on the default flag set, fatal on a violation.
func ValidateInts(logger *log.Logger, positive, zeroMeansDefault map[string]bool, values map[string]int) {
	if err := IntError(flag.CommandLine, positive, zeroMeansDefault, values); err != nil {
		logger.Fatal(err)
	}
}
