package repro.core

import scala.collection.mutable

/** Generic (1+ε)-coreset for FairDiv (Theorem 4.2): run any constant-
  * approximation k-center algorithm independently on each color class and
  * take the union of the centers. The paper's implementation (§6) fixes the
  * algorithm to Gonzalez with k' = k iterations per color, giving a coreset
  * of exactly `m·k` points (capped by color-class size); we do the same.
  * Both coreset paths (this reference and the Spark map side) put each point
  * straight into its color's [[Block]], in input order.
  */
object Coreset {

  /** One [[Block]] per color, in a primitive-keyed map (any `Int` color, no
    * boxing per row) behind a direct-mapped cache of one array load per row.
    */
  final class ByColor(d: Int, capacity: Int) {
    private val blocks = new mutable.LongMap[Block]()
    private val cachedColor = new Array[Int](64)
    private val cached = new Array[Block](64)

    def apply(color: Int): Block = {
      val s = color & 63
      if ((cached(s) eq null) || cachedColor(s) != color) {
        cached(s) = blocks.getOrElseUpdate(color, new Block(d, capacity))
        cachedColor(s) = color
      }
      cached(s)
    }

    /** Per-color Gonzalez: each color `c` with its block and its `kPrime`
      * centers (block indices, in selection order), colors in
      * `Array.groupBy`'s key order over the colors present: the order the
      * baselines, QFairDiv and merge read.
      */
    def centers(kPrime: Int): Iterator[(Int, Block, Array[Int])] =
      blocks.keysIterator.map(_.toInt).toArray.groupBy(identity).keysIterator
        .map(c => (c, blocks(c), Gonzalez.columns(blocks(c).cols, blocks(c).n, kPrime).centers))
  }

  /** Per-color Gonzalez(k') coreset, in [[ByColor.centers]]' color order.
    * O(n k') time, O(n) space.
    */
  def local(pts: Array[LabeledPoint], kPrime: Int): Array[LabeledPoint] = {
    if (pts.isEmpty) return Array.empty
    val blocks = new ByColor(pts(0).x.length, math.min(pts.length, 1024))
    var i = 0
    while (i < pts.length) { blocks(pts(i).color).add(i, pts(i).x); i += 1 } // ids: indices into pts
    blocks.centers(kPrime).flatMap { case (_, b, cs) => cs.map(j => pts(b.ids(j).toInt)) }.toArray
  }
}
