// Command exportsuser is the production caller of the exports fixture.
package main

import (
	"fmt"

	"sinrconn/internal/exports"
)

func main() {
	fmt.Println(exports.Used(), exports.Widget{N: 1})
	k := exports.Knobs{Keyed: 1}
	k.Assigned = 2
	k.Bumped++
	set(&k.Addressed)
	fmt.Println(k.Fill(), exports.Pair{1, 2})
}

func set(p *int) { *p = 4 }
