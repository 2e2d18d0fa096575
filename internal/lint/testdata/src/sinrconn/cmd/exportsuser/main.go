// Command exportsuser is the production caller of the exports fixture.
package main

import (
	"fmt"

	"sinrconn/internal/exports"
)

func main() {
	fmt.Println(exports.Used(), exports.Widget{N: 1})
}
