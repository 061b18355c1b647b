// Command deltacfs-client runs a DeltaCFS client over a real directory and
// a small interactive shell for issuing file operations through the
// interception layer. Everything typed at the prompt flows through the
// DeltaCFS engine (relation table, sync queue, delta triggers) and syncs to
// the server.
//
// Usage:
//
//	deltacfs-client -addr localhost:7420 -dir ./sandbox
//
// Shell commands:
//
//	write <path> <off> <text>   write text at offset
//	cat <path>                  print file content
//	append <path> <text>        append text
//	create <path>               create/truncate a file
//	rename <old> <new>          rename
//	link <old> <new>            hard link
//	rm <path>                   unlink
//	ls                          list files
//	sync                        flush the sync queue now
//	stats                       engine counters
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7420", "server address")
	dir := flag.String("dir", "./deltacfs-sandbox", "local sync directory")
	flag.Parse()

	backing, err := vfs.NewDirFS(*dir)
	if err != nil {
		log.Fatalf("deltacfs-client: %v", err)
	}
	meter := metrics.NewCPUMeter(metrics.PC)
	traffic := &metrics.TrafficMeter{}
	ep, err := wire.Dial(*addr, nil, meter, traffic)
	if err != nil {
		log.Fatalf("deltacfs-client: %v", err)
	}
	defer ep.Close()

	clk := &clock.Clock{}
	start := time.Now()
	tick := func() {
		clk.Set(time.Since(start))
	}

	eng, err := core.New(core.Config{
		Backing:  backing,
		Endpoint: ep,
		Clock:    clk,
		Meter:    meter,
	})
	if err != nil {
		log.Fatalf("deltacfs-client: %v", err)
	}
	fs := eng.FS()
	fmt.Printf("deltacfs-client %d: syncing %s to %s\n", eng.ClientID(), *dir, *addr)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		tick()
		eng.Tick(clk.Now())
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			fmt.Print("> ")
			continue
		}
		var err error
		switch args[0] {
		case "quit", "exit":
			if err := eng.Drain(); err != nil {
				log.Printf("drain: %v", err)
			}
			return
		case "create":
			if len(args) == 2 {
				err = fs.Create(args[1])
			}
		case "write":
			if len(args) >= 4 {
				var off int64
				off, err = strconv.ParseInt(args[2], 10, 64)
				if err == nil {
					err = fs.WriteAt(args[1], off, []byte(strings.Join(args[3:], " ")))
				}
			}
		case "append":
			if len(args) >= 3 {
				st, serr := fs.Stat(args[1])
				off := int64(0)
				if serr == nil {
					off = st.Size
				}
				err = fs.WriteAt(args[1], off, []byte(strings.Join(args[2:], " ")))
			}
		case "cat":
			if len(args) == 2 {
				var data []byte
				data, err = fs.ReadFile(args[1])
				if err == nil {
					fmt.Printf("%s\n", data)
				}
			}
		case "rename":
			if len(args) == 3 {
				err = fs.Rename(args[1], args[2])
			}
		case "link":
			if len(args) == 3 {
				err = fs.Link(args[1], args[2])
			}
		case "rm":
			if len(args) == 2 {
				err = fs.Unlink(args[1])
			}
		case "ls":
			var names []string
			names, err = fs.List("")
			for _, n := range names {
				fmt.Println(n)
			}
		case "sync":
			err = eng.Drain()
		case "stats":
			st := eng.Stats()
			fmt.Printf("delta triggers %d, in-place deltas %d, batches %d, nodes %d\n",
				st.DeltaTriggers, st.InPlaceDeltas, st.UploadedBatches, st.UploadedNodes)
			fmt.Printf("uploaded %d B, downloaded %d B, cpu %d ticks\n",
				traffic.Uploaded(), traffic.Downloaded(), meter.Ticks())
		default:
			fmt.Printf("unknown command %q\n", args[0])
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
		tick()
		eng.Tick(clk.Now())
		fmt.Print("> ")
	}
}
