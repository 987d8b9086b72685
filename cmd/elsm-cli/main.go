// Command elsm-cli drives an elsm-server by hand over the binary protocol
// (internal/netclient): one command per invocation, the reply on stdout.
//
//	elsm-cli [-addr 127.0.0.1:7878] put <key> <value>   -> OK <ts>
//	elsm-cli get <key>                                  -> VALUE <ts> "<value>" | NOTFOUND
//	elsm-cli del <key>                                  -> OK <ts>
//	elsm-cli scan <start> <end>                         -> ROW "<key>" <ts> "<value>" ... END <n>
//	elsm-cli stats                                      -> STAT <name> <value> ..., sorted
//	elsm-cli promote                                    -> OK <epoch> (fail over to this follower)
//
// Keys and values print Go-quoted. Any error — BUSY, a typed server error (a
// verification failure, a read-only replica) — goes to stderr, exit status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"elsm/internal/netclient"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "elsm-server address")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: elsm-cli [-addr host:port] put k v | get k | del k | scan start end | stats | promote")
	}
	flag.Parse()
	if err := run(*addr, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "elsm-cli:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("no command")
	}
	c, err := netclient.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ok := func(n uint64, err error) error {
		if err == nil {
			fmt.Println("OK", n)
		}
		return err
	}
	switch cmd, args := args[0], args[1:]; {
	case cmd == "put" && len(args) == 2:
		return ok(c.Put([]byte(args[0]), []byte(args[1])))
	case cmd == "del" && len(args) == 1:
		return ok(c.Delete([]byte(args[0])))
	case cmd == "promote" && len(args) == 0:
		return ok(c.Promote())
	case cmd == "get" && len(args) == 1:
		res, err := c.Get([]byte(args[0]))
		if err != nil {
			return err
		}
		if !res.Found {
			fmt.Println("NOTFOUND")
			return nil
		}
		fmt.Printf("VALUE %d %q\n", res.Ts, res.Value)
	case cmd == "scan" && len(args) == 2:
		sc, err := c.Scan([]byte(args[0]), []byte(args[1]))
		if err != nil {
			return err
		}
		n := 0
		for ; sc.Next(); n++ {
			fmt.Printf("ROW %q %d %q\n", sc.Key(), sc.Ts(), sc.Value())
		}
		if err := sc.Close(); err != nil {
			return err
		}
		fmt.Println("END", n)
	case cmd == "stats" && len(args) == 0:
		stats, err := c.Stats()
		if err != nil {
			return err
		}
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println("STAT", name, stats[name])
		}
	default:
		flag.Usage()
		return fmt.Errorf("unknown command or wrong arity %q", cmd)
	}
	return nil
}
