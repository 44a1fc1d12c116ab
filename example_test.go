package locofs_test

import (
	"fmt"
	"log"

	"locofs"
)

// Example shows the minimal lifecycle: start an in-process cluster, connect
// a client, and use the file system.
func Example() {
	cluster, err := locofs.Start(locofs.Options{FMSCount: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fs, err := cluster.NewClient(locofs.ClientConfig{UID: 1000})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	if err := fs.Mkdir("/data", 0o755); err != nil {
		log.Fatal(err)
	}
	if err := fs.Create("/data/hello.txt", 0o644); err != nil {
		log.Fatal(err)
	}
	f, err := fs.Open("/data/hello.txt", true)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("loosely coupled"), 0); err != nil {
		log.Fatal(err)
	}
	f.Close()

	attr, err := fs.StatFile("/data/hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	// 8 round trips: one bootstrap fetch at dial (partition map and
	// membership in one batch), then mkdir 1, create 2,
	// open 1, write 2 (update-size + block), stat 1 — the paper's one-or-two
	// trips per metadata operation.
	fmt.Printf("size=%d trips=%d\n", attr.Size, fs.Trips())
	// Output: size=15 trips=8
}
