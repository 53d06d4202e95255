// Command ivy is the repository's one command-line tool. Its
// subcommands are the ways to describe a run:
//
//	ivy run    one benchmark program on a simulated cluster
//	ivy bench  the paper's tables and figures, the ablations, the chaos suite
//	ivy prof   one program under the coherence profiler
//	ivy trace  a small scenario with every protocol message printed
//	ivy node   one rank of a multi-process cluster over real TCP
//	ivy vet    the repository's static-analysis suite
//
// `ivy help` lists them and `ivy help <subcommand>` is the flag
// reference. The flags that describe a cluster (-procs, -pagesize,
// -manager, -coherence, -seed, ...) are declared once, in internal/cli,
// and mean the same thing under every subcommand that takes them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// command is one subcommand. setup declares its flags on fs and returns
// the body to run once they are parsed, so `ivy help` can print the
// flags of a subcommand without running it.
type command struct {
	name     string
	synopsis string // one line
	detail   string // examples and notes, for `ivy help <name>`
	setup    func(fs *flag.FlagSet) body
}

// body runs a subcommand on its positional arguments. It returns nil, a
// usageError (exit 2), an exitCode (that status, nothing more printed),
// or any other error (exit 1).
type body func(args []string, stdout, stderr io.Writer) error

// usageError marks a mistake in the command line.
type usageError struct{ error }

// exitCode is a failure the subcommand has already explained on stdout.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

var commands = []*command{runCmd, benchCmd, profCmd, traceCmd, nodeCmd, vetCmd}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: tests call it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		help(nil, stderr)
		return 2
	}
	name, args := args[0], args[1:]
	switch name {
	case "help", "-h", "-help", "--help":
		return help(args, stdout)
	}
	c, fs := lookup(name)
	if c == nil {
		fmt.Fprintf(stderr, "ivy %s: unknown subcommand (see `ivy help`)\n", name)
		return 2
	}
	do := c.setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return help([]string{name}, stdout)
		}
		fmt.Fprintf(stderr, "ivy %s: %v\n", name, err)
		return 2
	}
	err := do(fs.Args(), stdout, stderr)
	var code exitCode
	switch {
	case err == nil:
		return 0
	case errors.As(err, &code):
		return int(code)
	}
	fmt.Fprintf(stderr, "ivy %s: %v\n", name, err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// lookup returns the named subcommand and a silent flag set for it (run
// reports parse errors itself, in one line), or nils.
func lookup(name string) (*command, *flag.FlagSet) {
	for _, c := range commands {
		if c.name == name {
			fs := flag.NewFlagSet("ivy "+name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			return c, fs
		}
	}
	return nil, nil
}

// help prints the subcommand list, or one subcommand's flag reference.
func help(args []string, w io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(w, "usage: ivy <subcommand> [flags]\n\n")
		for _, c := range commands {
			fmt.Fprintf(w, "  %-6s %s\n", c.name, c.synopsis)
		}
		fmt.Fprint(w, `
"ivy help <subcommand>" prints a subcommand's flags. The flags that
describe a cluster are shared: -procs, -pagesize, -mempages, -manager,
-coherence, -loss, -seed, -sysmode, -drace, -profile, -trace/-sample and
-parallel mean the same thing wherever they are accepted. -manager takes
dynamic, centralized, fixed, broadcast or basic under every subcommand.
-pages is not shared: "ivy node -pages N" sizes the shared space,
"ivy trace -pages" prints page transitions.
`)
		return 0
	}
	c, fs := lookup(args[0])
	if c == nil {
		fmt.Fprintf(w, "ivy help: unknown subcommand %q\n", args[0])
		return 2
	}
	c.setup(fs)
	fmt.Fprintf(w, "usage: ivy %s [flags]\n\n%s\n\n%s\n\nflags:\n", c.name, c.synopsis, strings.TrimSpace(c.detail))
	fs.SetOutput(w)
	fs.PrintDefaults()
	return 0
}

// appFlag declares -app, the one flag every program-running subcommand
// shares that is not part of an ivy.Config.
func appFlag(fs *flag.FlagSet, def, usage string) *string { return fs.String("app", def, usage) }
