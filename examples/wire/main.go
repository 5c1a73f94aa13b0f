// Wire: an in-process hydra-server with several TCP clients
// performing transactional work over the wire, including an explicit
// multi-statement transaction that aborts.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"hydra/internal/core"
	"hydra/internal/server"
)

func main() {
	engine, err := core.Open(core.Scalable())
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	srv := server.New(engine)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	fmt.Printf("server listening on %s\n", addr)

	admin, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	if err := admin.CreateTable("inventory"); err != nil {
		log.Fatal(err)
	}

	// Several clients write disjoint key ranges concurrently.
	const clients, perClient = 6, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				log.Print(err)
				return
			}
			defer cl.Close()
			base := uint64(c * 1000)
			for i := uint64(0); i < perClient; i++ {
				if err := cl.Set("inventory", base+i, fmt.Sprintf("item-%d-%d", c, i)); err != nil {
					log.Printf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	rows, err := admin.Scan("inventory", 0, ^uint64(0), 10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d clients wrote %d rows over TCP\n", clients, len(rows))

	// Explicit transaction: reserve two items, then change our mind.
	if err := admin.Begin(); err != nil {
		log.Fatal(err)
	}
	admin.Set("inventory", 1, "RESERVED")
	admin.Set("inventory", 2, "RESERVED")
	if err := admin.Abort(); err != nil {
		log.Fatal(err)
	}
	v, err := admin.Get("inventory", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after aborted reservation, item 1 = %q (unchanged)\n", v)

	stats, err := admin.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: %s\n", stats)
}
