// Command app is the fixture's one program.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"reachfixture/internal/lib"
)

func main() {
	m := lib.NewMeter("m")
	m.Add(3)
	// sort puts sort.Interface, and its Len, in the program.
	hops := []int{3, 1, 2}
	sort.Ints(hops)
	fmt.Println(m, lib.NewWindow(hops...).Last())
	json.NewEncoder(os.Stdout).Encode(m.Stats)
	fmt.Println(errors.Is(&lib.WrapErr{Err: os.ErrNotExist}, os.ErrNotExist))
}
