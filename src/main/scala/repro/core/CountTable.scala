package repro.core

import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.collection.mutable

/** One vertex's counts at one level — the compact count table of §3.1:
  * colored-treelet codes ascending, next to their exact counts. The counts
  * are primitive `Long`s unless one of them does not fit a `Long`; then all
  * of them are `BigInt`s. Equality is by value.
  *
  * The companion holds the two kernels both build-ups share: the neighbor
  * sum S_h(v) = Σ_{u~v} c(·, u) and the Eq. (1) step. Both count in `Long`
  * with overflow-checked arithmetic and redo the table in `BigInt` when a
  * sum or product overflows, so the result is exact either way.
  */
final class CountTable private (val codes: Array[Long], private val longs: Array[Long],
                                private val bigs: Array[BigInt]) extends Serializable {

  def size: Int = codes.length

  /** Exact count of entry i. */
  def count(i: Int): BigInt = if (bigs == null) BigInt(longs(i)) else bigs(i)

  /** Count of entry i as a `Double`, rounded once from the exact value. */
  def weight(i: Int): Double = if (bigs == null) longs(i).toDouble else bigs(i).toDouble

  def total: BigInt = (0 until size).foldLeft(BigInt(0))(_ + count(_))

  def toMap: Map[Long, BigInt] = codes.indices.map(i => codes(i) -> count(i)).toMap

  /** (free shape, count) per entry — r_j of AGS summed over vertices. */
  def byFreeShape: Seq[(Int, BigInt)] =
    codes.indices.map(i => TreeletEnum.freeShape(ColoredTreelet.shape(codes(i))) -> count(i))

  override def equals(o: Any): Boolean = o match {
    case t: CountTable =>
      java.util.Arrays.equals(codes, t.codes) && java.util.Arrays.equals(longs, t.longs) &&
        (if (bigs == null) t.bigs == null else t.bigs != null && bigs.sameElements(t.bigs))
    case _ => false
  }

  override def hashCode: Int = java.util.Arrays.hashCode(codes)

  override def toString: String = toMap.mkString("CountTable(", ", ", ")")
}

object CountTable {

  /** The table of `codes` (ascending) with their exact `counts`. */
  def apply(codes: Array[Long], counts: Array[BigInt]): CountTable =
    if (counts.forall(_.isValidLong)) new CountTable(codes, counts.map(_.toLong), null)
    else new CountTable(codes, null, counts)

  val Empty: CountTable = new CountTable(Array.emptyLongArray, Array.emptyLongArray, null)

  /** Level 1 at a vertex of color `color`: the vertex itself, once. */
  def singleton(color: Int): CountTable =
    new CountTable(Array(ColoredTreelet.singleton(color)), Array(1L), null)

  private val One = singleton(0)

  /** Entry-wise sum of two tables. */
  def add(a: CountTable, b: CountTable): CountTable = sum(Seq(a, b))

  /** Entry-wise sum; over the tables of v's neighbors, the neighbor sum S_h(v). */
  def sum(ts: Seq[CountTable]): CountTable = exactly(divideByBeta = false) { term =>
    for (t <- ts; i <- 0 until t.size) term(t.codes(i), t, i, One, 0) // count · 1
  }

  /** Eq. (1) at level h for one vertex v, from `lower(h1)`, v's table at
    * level h1, and `sums(h2)` = S_{h2}(v), both for levels 1 … h−1:
    *
    *   c(T_C, v) = (1/β_T) Σ_{h2 < h} Σ_{ct1, ct2 ↦ T_C} c(ct1, v) · S_{h2}(v)[ct2]
    *
    * @throws IllegalArgumentException if a count is not divisible by its
    *         β_T (the DP would be wrong)
    */
  def eq1(h: Int, lower: Int => CountTable, sums: Int => CountTable): CountTable =
    exactly(divideByBeta = true) { term =>
      for (h2 <- 1 until h) {
        val (left, right) = (lower(h - h2), sums(h2))
        var i = 0
        while (i < left.size) {
          var j = 0
          while (j < right.size) {
            val m = ColoredTreelet.tryMerge(left.codes(i), right.codes(j))
            if (m != -1L) term(m, left, i, right, j)
            j += 1
          }
          i += 1
        }
      }
    }

  /** Adds a.count(i) · b.count(j) to the sum of `code`. */
  private abstract class Term { def apply(code: Long, a: CountTable, i: Int, b: CountTable, j: Int): Unit }

  /** The table of the per-code sums of the terms `terms` emits, β-divided
    * if `divideByBeta`: in `Long`, and again in `BigInt` when an input holds
    * `BigInt`s or a product or sum overflows.
    */
  private def exactly(divideByBeta: Boolean)(terms: Term => Unit): CountTable = {
    def beta(ct: Long): Int = if (divideByBeta) Treelet.beta(ColoredTreelet.shape(ct)) else 1
    // β_T division of Eq. (1) — exact; non-divisibility is a bug.
    def remainder(c: Any, b: Int, ct: Long) =
      s"β-division remainder: c=$c β=$b ct=${ColoredTreelet.toPrettyString(ct)}"
    try {
      val acc = new LongSums
      terms { (code, a, i, b, j) =>
        if (a.bigs != null || b.bigs != null) throw new ArithmeticException("BigInt counts")
        acc.add(code, Math.multiplyExact(a.longs(i), b.longs(j)))
      }
      val codes = acc.codes
      new CountTable(codes, codes.map { ct =>
        val (c, b) = (acc(ct), beta(ct))
        require(c % b == 0, remainder(c, b, ct))
        c / b
      }, null)
    } catch {
      case _: ArithmeticException =>
        val acc = mutable.HashMap.empty[Long, BigInt]
        terms((code, a, i, b, j) => acc(code) = acc.getOrElse(code, BigInt(0)) + a.count(i) * b.count(j))
        val codes = acc.keys.toArray.sorted
        apply(codes, codes.map { ct =>
          val (q, r) = acc(ct) /% BigInt(beta(ct))
          require(r == 0, remainder(acc(ct), beta(ct), ct))
          q
        })
    }
  }

  /** Open-addressing code → `Long` sum; every valid code is positive, so 0
    * marks a free slot. `add` throws `ArithmeticException` on overflow.
    */
  private final class LongSums {
    private var keys = new Array[Long](64)
    private var vals = new Array[Long](64)
    private var used = 0

    private def slot(code: Long): Int = {
      var i = ((code * 0x9E3779B97F4A7C15L) >>> 32).toInt & (keys.length - 1)
      while (keys(i) != 0L && keys(i) != code) i = (i + 1) & (keys.length - 1)
      i
    }

    def apply(code: Long): Long = vals(slot(code))

    def add(code: Long, c: Long): Unit = {
      val i = slot(code)
      if (keys(i) == code) vals(i) = Math.addExact(vals(i), c)
      else {
        keys(i) = code; vals(i) = c; used += 1
        if (2 * used > keys.length) {
          val (ks, vs) = (keys, vals)
          keys = new Array[Long](2 * ks.length); vals = new Array[Long](2 * ks.length)
          for (s <- ks.indices if ks(s) != 0L) { val t = slot(ks(s)); keys(t) = ks(s); vals(t) = vs(s) }
        }
      }
    }

    /** The codes, ascending. */
    def codes: Array[Long] = keys.filter(_ != 0L).sorted
  }
}
